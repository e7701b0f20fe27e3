// The shared solve core behind `relkit_cli --batch` lines and relkit_serve
// responses: parse one model (from a file or inline text), solve it under
// an optional wall-clock deadline, and classify the outcome into the CLI's
// exit-code taxonomy — so a served solve and a CLI solve of the same model
// produce byte-identical result fields.
#pragma once

#include <string>
#include <vector>

#include "robust/budget.hpp"
#include "robust/robust.hpp"

namespace relkit::serve {

/// What to solve. Exactly one of `path` / `inline_text` should be set;
/// `inline_text` wins when both are.
struct SolveSpec {
  std::string path;         ///< model file to parse (CLI batch, gated server)
  std::string inline_text;  ///< model source text (server requests)
  std::vector<double> times;
  /// Per-request deadline, installed as the thread's ambient deadline for
  /// the duration of the solve so nested CTMC solves inherit it.
  robust::Deadline deadline;
  /// Forced stationary solver, installed as the thread's ambient solver
  /// choice (ScopedSolverChoice) for the duration of the solve. kAuto =
  /// the verified fallback chain.
  robust::SolverChoice solver = robust::SolverChoice::kAuto;
};

/// Classified outcome. `fields` is the inside of a JSON object (starting
/// at `"ok":...`, no surrounding braces) so callers can prepend their own
/// correlation fields (batch index, request id) and append extras
/// (profile) before closing the object.
struct SolveOutcome {
  /// CLI exit class: 0 ok, 2 model, 3 numerical, 4 invalid argument,
  /// 5 deadline-exceeded-with-partial-result.
  int exit_class = 0;
  /// "", "model", "numerical", "invalid", "deadline", or "error".
  std::string error_class;
  /// True for the deadline-exceeded case: the response carries a partial
  /// result and diagnostics rather than a full answer.
  bool degraded = false;
  std::string fields;
};

/// Formats a double the way solve results are written (%.12g, the
/// number format of obs::JsonWriter).
std::string json_number(double v);

/// Parses and solves one model; never throws. Exceptions from parsing and
/// solving are folded into the outcome's error class; a ConvergenceError
/// whose deadline expired with a usable partial result becomes the
/// degraded "deadline" class (exit 5) carrying `"partial"` and `"report"`
/// fields instead of being lumped in with hard numerical failures.
SolveOutcome solve_model(const SolveSpec& spec);

}  // namespace relkit::serve
