#include "serve/solve_json.hpp"

#include "common/error.hpp"
#include "io/model_parser.hpp"
#include "obs/obs.hpp"
#include "robust/report.hpp"

namespace relkit::serve {

std::string json_number(double v) { return obs::JsonWriter().number(v).take(); }

namespace {

void write_strings(obs::JsonWriter& w, const std::vector<std::string>& items) {
  w.begin_array();
  for (const std::string& item : items) w.string(item);
  w.end_array();
}

/// Compact SolveReport rendering for degraded responses: enough to tell
/// what was attempted and why it stopped, without the full trajectory.
void write_report(obs::JsonWriter& w, const robust::SolveReport& report) {
  w.begin_object().key("method").string(report.method);
  w.key("converged").boolean(report.converged);
  w.key("iterations").integer(report.iterations);
  w.key("residual").number(report.residual);
  write_strings(w.key("attempts"), report.attempts);
  write_strings(w.key("fallbacks"), report.fallbacks);
  write_strings(w.key("warnings"), report.warnings);
  w.end_object();
}

obs::JsonWriter error_fields(const char* error_class,
                             const std::string& message) {
  obs::JsonWriter w;
  w.key("ok").boolean(false).key("error_class").string(error_class);
  w.key("error").string(message);
  return w;
}

}  // namespace

SolveOutcome solve_model(const SolveSpec& spec) {
  SolveOutcome out;
  const auto fail = [&out](int exit_class, const char* error_class,
                           const char* message) {
    out.exit_class = exit_class;
    out.error_class = error_class;
    out.fields = error_fields(error_class, message).take();
  };
  // The ambient deadline binds every nested solve below this frame,
  // including hierarchical `event ... markov` submodels solved inside the
  // parser — the only way a per-request deadline can reach them.
  robust::ScopedDeadline scoped(spec.deadline);
  const robust::ScopedSolverChoice scoped_solver(spec.solver);
  // Clear the thread-local last-report slot so the "solver" field below
  // can only describe THIS solve, never a stale one from a previous
  // request on the same worker thread.
  robust::record_last_report(robust::SolveReport{});
  try {
    const io::ParsedModel model =
        !spec.inline_text.empty() ? io::parse_model_string(spec.inline_text)
                                  : io::parse_model_file(spec.path);
    const auto* ft = model.fault_tree.get();
    const auto* graph = model.graph.get();
    const double steady = ft      ? ft->top_probability_limit()
                          : graph ? graph->reliability(-1.0)
                                  : model.rbd->availability();
    const auto value_at = [&](double t) {
      return ft      ? ft->top_probability(t)
             : graph ? graph->reliability(t)
                     : model.rbd->reliability(t);
    };
    obs::JsonWriter w;
    w.key("ok").boolean(true).key("name").string(model.name);
    w.key("kind").string(ft ? "ftree" : graph ? "relgraph" : "rbd");
    w.key("steady").number(steady).key("at").begin_array();
    for (const double t : spec.times) {
      w.begin_object().key("t").number(t);
      w.key("value").number(value_at(t)).end_object();
    }
    w.end_array();
    // Which stationary method produced the answer, when a CTMC solve ran
    // (combinatorial-only models leave the slot empty).
    if (robust::has_last_report() && !robust::last_report().method.empty()) {
      w.key("solver").string(robust::last_report().method);
    }
    out.fields = w.take();
  } catch (const robust::ConvergenceError& e) {
    if (!scoped.effective().unlimited() && scoped.effective().expired() &&
        !e.partial_result().empty()) {
      // Degraded mode: the deadline fired mid-solve but the solver saved
      // its best iterate. Flag it clearly — a consumer must opt in to
      // trusting a partial result.
      out.exit_class = 5;
      out.error_class = "deadline";
      out.degraded = true;
      obs::JsonWriter w = error_fields("deadline", e.what());
      w.key("degraded").boolean(true).key("partial").begin_array();
      for (const double p : e.partial_result()) w.number(p);
      w.end_array().key("report");
      write_report(w, e.report());
      out.fields = w.take();
    } else {
      fail(3, "numerical", e.what());
    }
  } catch (const ModelError& e) {
    fail(2, "model", e.what());
  } catch (const NumericalError& e) {
    fail(3, "numerical", e.what());
  } catch (const InvalidArgument& e) {
    fail(4, "invalid", e.what());
  } catch (const std::exception& e) {
    fail(2, "error", e.what());
  }
  return out;
}

}  // namespace relkit::serve
