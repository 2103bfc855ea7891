// NlftNode — one computer node with its CPU, real-time kernel,
// error-handling policy (light-weight NLFT or fail-silent baseline), and
// permanent-fault suspicion monitor, wired together per Section 2 of the
// paper. Every node of the brake-by-wire system is one.
#pragma once

#include <optional>

#include "core/policies.hpp"
#include "core/tem.hpp"
#include "rtkernel/kernel.hpp"
#include "sim/simulator.hpp"

namespace nlft::tem {

enum class NodePolicy : std::uint8_t { Nlft, FailSilent };

/// An NLFT node runs its critical tasks under TEM (at most three copies per
/// job) and suspects a permanent fault after kPermanentFaultThreshold
/// erroneous jobs in a row.
struct NodeConfig {
  NodePolicy policy = NodePolicy::Nlft;
};

/// One computer node. Critical tasks run under TEM (NLFT policy) or as
/// single copies that silence the node on any error (fail-silent policy);
/// non-critical tasks are shut down individually on error either way.
///
/// The kernel's handlers hold the node, so it can be neither copied nor
/// moved.
class NlftNode {
 public:
  NlftNode(sim::Simulator& simulator, NodeConfig config = {});
  NlftNode(const NlftNode&) = delete;
  NlftNode& operator=(const NlftNode&) = delete;

  /// Registers a critical task (must be called before start()).
  rt::TaskId addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior);
  /// Registers a non-critical task.
  rt::TaskId addNonCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior);

  /// Starts periodic task releases.
  void start();
  /// Restarts a silent node (after off-line diagnosis found a transient).
  void restart();

  [[nodiscard]] bool silent() const { return kernel_.stopped(); }

  /// Invoked whenever the node becomes silent (kernel error, fail-silent
  /// policy reaction, or permanent-fault suspicion).
  void setSilentHook(std::function<void()> hook) { silentHook_ = std::move(hook); }

  /// Result delivery (the node's outputs toward network/actuators).
  void setResultSink(rt::RtKernel::ResultSink sink) { kernel_.setResultSink(std::move(sink)); }

  /// An error in the kernel itself: the node goes silent (Section 2.2). An
  /// error inside a task copy is the copy's own plan
  /// (CopyPlan::End::DetectedError).
  void reportKernelError() { kernel_.reportKernelError(); }

  [[nodiscard]] rt::RtKernel& kernel() { return kernel_; }
  [[nodiscard]] rt::Cpu& cpu() { return cpu_; }
  [[nodiscard]] const rt::TaskStats& taskStats(rt::TaskId task) const {
    return kernel_.stats(task);
  }
  /// TEM statistics (NLFT policy only; throws for fail-silent nodes).
  [[nodiscard]] const TemStats& temStats(rt::TaskId task) const;
  [[nodiscard]] bool permanentFaultSuspected() const { return monitor_.permanentSuspected(); }
  [[nodiscard]] NodePolicy policy() const { return config_.policy; }

 private:
  NodeConfig config_;
  rt::Cpu cpu_;
  rt::RtKernel kernel_;
  std::optional<TemExecutor> tem_;  ///< NLFT policy only
  PermanentFaultMonitor monitor_;
  std::function<void()> silentHook_;
};

}  // namespace nlft::tem
