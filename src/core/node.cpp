#include "core/node.hpp"

#include <stdexcept>

namespace nlft::tem {

NlftNode::NlftNode(sim::Simulator& simulator, NodeConfig config)
    : config_{config}, cpu_{simulator}, kernel_{simulator, cpu_} {
  kernel_.setFailSilentHook([this] {
    if (silentHook_) silentHook_();
  });
  if (config_.policy == NodePolicy::Nlft) {
    tem_.emplace(kernel_);
    tem_->setJobErrorCallback(
        [this](rt::TaskId task, bool hadError) { monitor_.onJob(task, hadError); });
    // Repeated errors on consecutive jobs suggest a permanent fault: shut
    // the node down for off-line diagnosis (Section 2.5).
    monitor_.setShutdownHook([this] { kernel_.reportKernelError(); });
  }
}

rt::TaskId NlftNode::addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior) {
  if (tem_) return tem_->addCriticalTask(std::move(taskConfig), std::move(behavior));
  return addFailSilentTask(kernel_, std::move(taskConfig), std::move(behavior));
}

rt::TaskId NlftNode::addNonCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior) {
  return tem::addNonCriticalTask(kernel_, std::move(taskConfig), std::move(behavior));
}

void NlftNode::start() { kernel_.start(); }

void NlftNode::restart() { kernel_.restart(); }

const TemStats& NlftNode::temStats(rt::TaskId task) const {
  if (!tem_) throw std::logic_error("NlftNode: temStats on a fail-silent node");
  return tem_->stats(task);
}

}  // namespace nlft::tem
