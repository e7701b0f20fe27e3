#!/usr/bin/env python3
"""Drives the real relkit_cli end to end, run under ctest.

Usage:
    check_cli.py CLI_BINARY MODELS_DIR

Checks, on the shipped example models:

  * `--trace` prints a '--- trace ---' header followed by the span tree;
  * `--trace=FILE` writes Chrome trace-event JSON that json.load accepts
    and that holds complete ("ph": "X") events;
  * `--metrics` and `--metrics=FILE` write an OpenMetrics exposition that
    passes check_openmetrics.py's validator;
  * every `--batch LIST --jobs 1` line is a JSON object, one per model in
    any order, and the per-error-class summary line comes last;
  * the exit-code table: malformed `--time` values, `--jobs 0` and an
    empty `--trace=` exit 4 (invalid argument); the removed
    `--trace-format` and `--metrics-format` flags exit 1 (unknown flag);
  * the deadline exit class: under `--timeout-ms 1`, a pool whose SOR
    solve takes well over 1 ms exits 5 with `DEGRADED: deadline exceeded`,
    and under `--batch` its line has `"error_class":"deadline"` and the
    run exits 5;
  * a clean exit with thread-pool workers: 2,000 runs of `cluster.rbd
    --no-solver-cache --jobs 2` all exit 0.

Exit codes: 0 all checks pass, 1 a check failed (problems listed).
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_openmetrics import validate  # noqa: E402


def run(cli: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=120)


def check_trace(cli: str, model: str, tmp: str) -> list[str]:
    problems = []
    tree = run(cli, model, "--trace")
    lines = tree.stdout.splitlines()
    if tree.returncode != 0 or "--- trace ---" not in lines:
        problems.append(f"--trace: exit {tree.returncode}, no trace header")
    else:
        after = lines[lines.index("--- trace ---") + 1:]
        if not after or "wall" not in after[0] or "cpu" not in after[0]:
            problems.append(f"--trace: no span tree after the header: "
                            f"{after[:1]}")

    path = os.path.join(tmp, "trace.json")
    chrome = run(cli, model, f"--trace={path}")
    written = f"trace written to {path}"
    if chrome.returncode != 0 or written not in chrome.stdout:
        problems.append(f"--trace=FILE: exit {chrome.returncode}")
        return problems
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f).get("traceEvents", [])
    except json.JSONDecodeError as e:
        return problems + [f"--trace=FILE: not one JSON document: {e}"]
    if not any(e.get("ph") == "X" for e in events):
        problems.append("--trace=FILE: no complete (ph X) events")
    return problems


def check_metrics(cli: str, model: str, tmp: str) -> list[str]:
    problems = []
    stdout = run(cli, model, "--metrics")
    start = stdout.stdout.find("# HELP")
    if stdout.returncode != 0 or start < 0:
        problems.append(f"--metrics: exit {stdout.returncode}, no exposition")
    else:
        exposition = stdout.stdout[start:]
        problems += [f"--metrics: {p}" for p in validate(exposition)]

    path = os.path.join(tmp, "metrics.txt")
    to_file = run(cli, model, f"--metrics={path}")
    if to_file.returncode != 0:
        problems.append(f"--metrics=FILE: exit {to_file.returncode}")
        return problems
    with open(path, encoding="utf-8") as f:
        problems += [f"--metrics=FILE: {p}" for p in validate(f.read())]
    return problems


def check_batch(cli: str, models: list[str], tmp: str) -> list[str]:
    problems = []
    listing = os.path.join(tmp, "models.list")
    with open(listing, "w", encoding="utf-8") as f:
        f.write("# every shipped model\n\n" + "\n".join(models) + "\n")
    batch = run(cli, "--batch", listing, "--jobs", "1", "--time", "10")
    if batch.returncode != 0:
        problems.append(f"--batch: exit {batch.returncode}: {batch.stderr}")
    try:
        objects = [json.loads(line) for line in batch.stdout.splitlines()]
    except json.JSONDecodeError as e:
        return problems + [f"--batch: a line is not JSON: {e}"]
    if len(objects) != len(models) + 1:
        return problems + [f"--batch: {len(objects)} lines for "
                           f"{len(models)} models"]
    *lines, summary = objects
    if sorted(o.get("index") for o in lines) != list(range(len(models))):
        problems.append("--batch: model lines do not cover every index")
    if summary.get("summary") is not True or summary.get("ok") != len(models):
        problems.append(f"--batch: last line is not the summary: {summary}")
    return problems


def check_exit_codes(cli: str, model: str) -> list[str]:
    table = [
        (["--time", "abc"], 4),
        (["--time", "5x"], 4),
        (["--time", "-5"], 4),
        (["--time", "inf"], 4),
        (["--time", "nan"], 4),
        (["--time"], 4),
        (["--jobs", "0"], 4),
        (["--trace="], 4),
        (["--trace-format=chrome"], 1),
        (["--metrics-format=json"], 1),
        (["--time", "0", "10"], 0),
    ]
    problems = []
    for args, want in table:
        result = run(cli, model, *args)
        if result.returncode != want:
            problems.append(f"{' '.join(args)}: exit {result.returncode}, "
                            f"want {want}")
        elif want == 4 and result.stdout:
            problems.append(f"{' '.join(args)}: model output before the error")
    return problems


def check_deadline(cli: str, tmp: str) -> list[str]:
    # 2001 states, above the dense-solver threshold: the SOR solve takes
    # about 15 ms unbounded (4-core host, RelWithDebInfo).
    model = os.path.join(tmp, "farm.rbd")
    with open(model, "w", encoding="utf-8") as f:
        f.write("model rbd pool\n"
                "event farm markov 2000 1900 0.0017 0.093\n"
                "top farm\n")
    problems = []
    single = run(cli, model, "--timeout-ms", "1")
    if (single.returncode != 5 or
            "DEGRADED: deadline exceeded" not in single.stdout):
        problems.append(f"--timeout-ms 1: exit {single.returncode}, want 5 "
                        f"with a DEGRADED line")

    listing = os.path.join(tmp, "deadline.list")
    with open(listing, "w", encoding="utf-8") as f:
        f.write(model + "\n")
    batch = run(cli, "--batch", listing, "--jobs", "1", "--timeout-ms", "1")
    try:
        classes = [json.loads(line).get("error_class")
                   for line in batch.stdout.splitlines()]
    except json.JSONDecodeError as e:
        return problems + [f"--batch --timeout-ms 1: a line is not JSON: {e}"]
    if batch.returncode != 5 or "deadline" not in classes:
        problems.append(f"--batch --timeout-ms 1: exit {batch.returncode}, "
                        f"error classes {classes}; want 5 and 'deadline'")
    return problems


def check_clean_exit(cli: str, models_dir: str) -> list[str]:
    # A pool worker whose thread first runs after main returned must not
    # reach the obs registry while static destructors tear it down. When it
    # did, about 1 run in 100 to 300 died of SIGSEGV at exit (4-core host);
    # 2,000 runs all pass at that rate with probability below 0.2%.
    model = os.path.join(models_dir, "cluster.rbd")
    runs = 2000
    codes: dict[int, int] = {}
    for _ in range(runs):
        code = subprocess.run([cli, model, "--no-solver-cache", "--jobs", "2"],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=120).returncode
        if code != 0:
            codes[code] = codes.get(code, 0) + 1
    if codes:
        return [f"cluster.rbd --jobs 2: {sum(codes.values())} of {runs} runs "
                f"exited non-zero (exit code: count {codes})"]
    return []


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    cli, models_dir = sys.argv[1], sys.argv[2]
    models = sorted(os.path.join(models_dir, name)
                    for name in os.listdir(models_dir))
    model = os.path.join(models_dir, "georedundant.rbd")
    with tempfile.TemporaryDirectory() as tmp:
        problems = (check_trace(cli, model, tmp) +
                    check_metrics(cli, model, tmp) +
                    check_batch(cli, models, tmp) +
                    check_exit_codes(cli, model) +
                    check_deadline(cli, tmp) +
                    check_clean_exit(cli, models_dir))
    if problems:
        print("check_cli: failures:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("check_cli: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
