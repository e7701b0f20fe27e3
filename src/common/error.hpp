// Error hierarchy used across all RelKit modules.
//
// All public RelKit functions report failure by throwing a subclass of
// relkit::Error. Precondition violations on user-supplied models throw
// ModelError; numerical failures (non-convergence, singular systems) throw
// NumericalError; out-of-range or inconsistent arguments throw
// InvalidArgument.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace relkit {

/// Base class of every exception thrown by RelKit.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A user-supplied model is structurally invalid (e.g. a fault-tree gate with
/// no inputs, a CTMC row that does not sum to zero, an unknown state name).
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what) : Error(what) {}
};

/// A numerical method failed (singular matrix, iteration did not converge,
/// overflow in a weight computation).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// An argument is outside its documented domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

namespace detail {
/// Throws InvalidArgument with `msg` unless `cond` holds. A passing check
/// allocates nothing for a literal, `const char*` or std::string message; a
/// message that must be concatenated is built only on failure
/// (`if (!cond) throw InvalidArgument(a + b);`) at checks that run per
/// element.
inline void require(bool cond, std::string_view msg) {
  if (!cond) throw InvalidArgument(std::string(msg));
}
/// Throws ModelError with `msg` unless `cond` holds.
inline void require_model(bool cond, std::string_view msg) {
  if (!cond) throw ModelError(std::string(msg));
}
}  // namespace detail

}  // namespace relkit
