// Dynamic fault trees (DFT) — sequence-dependent failure logic.
//
// Static fault trees cannot express spares, functional sequencing, or
// order-dependent failures; Trivedi's HARP pioneered the hybrid solution
// this module implements (the modular approach later formalized by Dugan):
//
//   * dynamic gates (warm/cold/hot SPARE, priority-AND) whose inputs are
//     dedicated basic events form independent *modules*; each module is
//     translated into a small absorbing CTMC whose time-to-absorption is
//     the module's failure-time distribution;
//   * the static part of the tree then treats each module as a pseudo
//     basic event carrying that (possibly defective) lifetime and is solved
//     combinatorially via the BDD engine.
//
// Basic events are exponential (rate per event); spare dormancy scales the
// rate while a spare is not powered (0 = cold, 1 = hot).
//
// Restrictions (validated): inputs of a dynamic gate must be basic events
// that appear nowhere else in the tree (module independence), the standard
// assumption of the modular method. FDEP/SEQ gates are out of scope.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/distributions.hpp"
#include "ftree/fault_tree.hpp"
#include "markov/ctmc.hpp"

namespace relkit::dft {

class Node;
using NodePtr = std::shared_ptr<const Node>;

/// DFT AST node.
class Node {
 public:
  enum class Kind { kBasic, kAnd, kOr, kKofN, kPand, kSpare };

  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  const std::vector<NodePtr>& children() const { return children_; }
  std::uint32_t k() const { return k_; }
  double dormancy() const { return dormancy_; }

  /// Basic event (exponential failure; rate given to Dft).
  static NodePtr basic(std::string name);
  /// Static gates (combinatorial part).
  static NodePtr and_gate(std::vector<NodePtr> children);
  static NodePtr or_gate(std::vector<NodePtr> children);
  static NodePtr k_of_n_gate(std::uint32_t k, std::vector<NodePtr> children);
  /// Priority-AND over basic events: fires iff ALL inputs fail *in the
  /// given left-to-right order*.
  static NodePtr pand_gate(std::string gate_name,
                           std::vector<NodePtr> children);
  /// Spare gate over basic events: children[0] is the primary, the rest are
  /// spares used in order. A dormant spare fails at dormancy * rate
  /// (0 = cold, 1 = hot). Fires when primary and all spares have failed.
  static NodePtr spare_gate(std::string gate_name,
                            std::vector<NodePtr> children, double dormancy);

 private:
  Node(Kind kind, std::string name, std::vector<NodePtr> children,
       std::uint32_t k, double dormancy)
      : kind_(kind), name_(std::move(name)), children_(std::move(children)),
        k_(k), dormancy_(dormancy) {}

  Kind kind_;
  std::string name_;
  std::vector<NodePtr> children_;
  std::uint32_t k_ = 0;
  double dormancy_ = 1.0;
};

/// Time-to-absorption distribution of an absorbing CTMC (the "fired" state
/// set). May be *defective*: with positive probability the chain settles in
/// a non-firing absorbing state and the event never occurs; cdf then
/// saturates below 1 and mean() returns +infinity.
class CtmcLifetime final : public Distribution {
 public:
  /// `fired[s]` marks the firing absorbing states. The chain must make all
  /// firing states absorbing.
  CtmcLifetime(markov::Ctmc chain, std::vector<double> initial,
               std::vector<bool> fired);

  double cdf(double t) const override;
  double pdf(double t) const override;
  double mean() const override;
  double variance() const override;
  double sample(Rng& rng) const override;
  std::string describe() const override;

  /// P(the event ever fires).
  double firing_probability() const { return fire_prob_; }

 private:
  markov::Ctmc chain_;
  SparseMatrix generator_;  // chain_'s, built once for sample() and pdf()
  std::vector<double> initial_;
  std::vector<bool> fired_;
  double fire_prob_ = 1.0;
  double mean_ = 0.0;      // +inf when defective
  double second_ = 0.0;    // second raw moment; +inf when defective
  double horizon_ = 0.0;   // beyond this, cdf == fire_prob_ (PH tail guard)
};

/// A compiled dynamic fault tree.
class Dft {
 public:
  /// `rates` maps every basic-event name to its exponential failure rate.
  Dft(NodePtr top, std::map<std::string, double> rates);

  /// P(top event by time t).
  double unreliability(double t) const;
  /// R(t) = 1 - unreliability(t).
  double reliability(double t) const;
  /// Mean time to top-event occurrence. Throws ModelError when the top
  /// event is defective (occurs with probability < 1).
  double mttf() const;

  /// Number of dynamic modules converted to CTMCs.
  std::size_t module_count() const { return modules_; }
  /// The static fault tree the DFT was reduced to.
  const ftree::FaultTree& static_tree() const { return *tree_; }

 private:
  std::unique_ptr<ftree::FaultTree> tree_;
  std::size_t modules_ = 0;
  double top_fire_prob_ = 1.0;
};

}  // namespace relkit::dft
