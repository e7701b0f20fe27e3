#!/usr/bin/env python3
"""Validates relkit's OpenMetrics expositions, run under ctest.

Usage:
    check_openmetrics.py CLI_BINARY MODEL_FILE   run the CLI, check output
    check_openmetrics.py --file EXPOSITION       check a saved exposition
    check_openmetrics.py --serve SERVE_BINARY    scrape a live relkit_serve

In CLI mode runs `CLI_BINARY MODEL_FILE --metrics` and
validates everything from the first '# HELP' line on (the human model
summary precedes the exposition on stdout). In serve mode it starts
SERVE_BINARY on an ephemeral port, scrapes GET /metrics, and additionally
checks the response Content-Type is the exact OpenMetrics media type, the
response carries an X-Relkit-Trace-Id header, and the exposition announces
the relkit_build_info and relkit_process_start_time_seconds families.
Checks, per the OpenMetrics text format:

  * every family is announced by '# HELP <name> <text>' immediately
    followed by '# TYPE <name> counter|gauge|histogram';
  * family and sample names match [a-zA-Z_:][a-zA-Z0-9_:]*; counter
    samples carry the '_total' suffix;
  * histogram bucket 'le' edges are strictly increasing and end at +Inf,
    cumulative bucket counts are non-decreasing, the final cumulative
    count equals the '_count' sample, and a '_sum' sample is present;
  * the exposition ends with '# EOF' and announces at least one family.

Exit codes: 0 valid, 1 invalid (problems listed), 2 usage/run error.
"""

import re
import subprocess
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$'
)
LE_RE = re.compile(r'le="(?P<le>[^"]+)"')


def parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def validate(exposition: str) -> list[str]:
    problems: list[str] = []
    lines = exposition.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition does not end with '# EOF'")

    families: dict[str, str] = {}  # name -> type
    # histogram name -> (le edges, cumulative counts, count sample, has sum)
    histograms: dict[str, dict] = {}
    previous_help: str | None = None

    for lineno, line in enumerate(lines, 1):
        if line == "# EOF":
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                problems.append(f"line {lineno}: malformed HELP line")
                continue
            previous_help = parts[2]
            if not NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: invalid name '{parts[2]}'")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram"
            ):
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name = parts[2]
            if name != previous_help:
                problems.append(
                    f"line {lineno}: TYPE '{name}' not preceded by its HELP"
                )
            families[name] = parts[3]
            if parts[3] == "histogram":
                histograms[name] = {
                    "les": [], "cumulative": [], "count": None, "sum": False
                }
            previous_help = None
            continue
        if line.startswith("#"):
            problems.append(f"line {lineno}: unknown comment line")
            continue

        match = SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name = match.group("name")
        value = parse_value(match.group("value"))
        family = max(
            (f for f in families
             if name == f or name.startswith(f + "_")),
            key=len, default=None,
        )
        if family is None:
            problems.append(
                f"line {lineno}: sample '{name}' belongs to no announced "
                "family"
            )
            continue
        kind = families[family]
        if kind == "counter" and name != family + "_total":
            problems.append(
                f"line {lineno}: counter sample '{name}' lacks '_total'"
            )
        if kind == "histogram":
            h = histograms[family]
            if name == family + "_bucket":
                le_match = LE_RE.search(match.group("labels") or "")
                if not le_match:
                    problems.append(f"line {lineno}: bucket without 'le'")
                    continue
                h["les"].append(parse_value(le_match.group("le")))
                h["cumulative"].append(value)
            elif name == family + "_count":
                h["count"] = value
            elif name == family + "_sum":
                h["sum"] = True

    if not families:
        problems.append("no metric families announced")
    for name, h in histograms.items():
        les = h["les"]
        if any(b <= a for a, b in zip(les, les[1:])):
            problems.append(f"{name}: 'le' edges are not strictly increasing")
        if not les or les[-1] != float("inf"):
            problems.append(f"{name}: bucket edges do not end at +Inf")
        cum = h["cumulative"]
        if any(b < a for a, b in zip(cum, cum[1:])):
            problems.append(f"{name}: cumulative bucket counts decrease")
        if h["count"] is None:
            problems.append(f"{name}: missing '_count' sample")
        elif cum and cum[-1] != h["count"]:
            problems.append(
                f"{name}: final cumulative count {cum[-1]} != _count "
                f"{h['count']}"
            )
        if not h["sum"]:
            problems.append(f"{name}: missing '_sum' sample")
    return problems


EXPECTED_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def check_serve(binary: str) -> int:
    """Starts `binary` on an ephemeral port, scrapes /metrics, validates."""
    import http.client
    import signal

    proc = subprocess.Popen(
        [binary, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()  # "listening on N"
        match = re.match(r"listening on (\d+)", line)
        if not match:
            print(f"check_openmetrics: unexpected server banner: {line!r}",
                  file=sys.stderr)
            return 2
        port = int(match.group(1))

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        content_type = response.getheader("Content-Type")
        trace_id = response.getheader("X-Relkit-Trace-Id")
        conn.close()

        problems = []
        if response.status != 200:
            problems.append(f"/metrics returned {response.status}")
        if content_type != EXPECTED_CONTENT_TYPE:
            problems.append(
                f"Content-Type is {content_type!r}, "
                f"expected {EXPECTED_CONTENT_TYPE!r}"
            )
        if not trace_id or not re.fullmatch(r"[0-9a-f]{32}", trace_id):
            problems.append(
                f"X-Relkit-Trace-Id is {trace_id!r}, "
                "expected 32 lowercase hex chars"
            )
        for family in ("relkit_build_info",
                       "relkit_process_start_time_seconds"):
            if f"# TYPE {family} " not in body:
                problems.append(f"missing family '{family}'")
        problems.extend(validate(body))
        if problems:
            print("check_openmetrics: invalid live exposition:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print("check_openmetrics: live exposition valid")
        return 0
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    if sys.argv[1] == "--serve":
        return check_serve(sys.argv[2])
    if sys.argv[1] == "--file":
        text = open(sys.argv[2], encoding="utf-8").read()
    else:
        result = subprocess.run(
            [sys.argv[1], sys.argv[2], "--metrics"],
            capture_output=True, text=True, timeout=120,
        )
        if result.returncode != 0:
            print(f"check_openmetrics: CLI exited {result.returncode}:\n"
                  f"{result.stderr}", file=sys.stderr)
            return 2
        text = result.stdout
    start = text.find("# HELP")
    if start < 0:
        print("check_openmetrics: no '# HELP' line in output")
        return 1
    problems = validate(text[start:])
    if problems:
        print("check_openmetrics: invalid exposition:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("check_openmetrics: exposition valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
