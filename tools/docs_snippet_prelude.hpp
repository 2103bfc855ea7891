// Ambient context for the documentation snippets.
//
// tools/check_docs.sh compiles every fenced ```cpp block under docs/ as the
// body of a function with this header in scope. The prose around a snippet
// introduces objects ("a node", "the assembled image", "the task config");
// this header gives those names real declarations so the snippet compiles
// exactly as printed. Keep it in sync when a doc introduces a new ambient
// name — the docs CI job fails otherwise.
//
// Everything here is for -fsyntax-only compilation; nothing is ever linked
// or run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "bbw/markov_models.hpp"
#include "core/node.hpp"
#include "exec/parallel_for.hpp"
#include "faults/campaign.hpp"
#include "faults/system_campaign.hpp"
#include "net/bus.hpp"
#include "net/membership.hpp"
#include "rtkernel/rta.hpp"
#include "sim/simulator.hpp"
#include "sysmodel/importance.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/statistics.hpp"
#include "verify/bbw_configs.hpp"
#include "verify/checks.hpp"

// Doc snippets qualify names with the inner namespaces (sim::, tem::, ...)
// and use util types (Duration, SimTime) unqualified, as the tutorial prose
// introduces them.
using namespace nlft;        // NOLINT
using namespace nlft::util;  // NOLINT

namespace docctx {

// §1-§2: the simulation world and a node.
inline sim::Simulator simulator;
inline tem::NlftNode node{simulator};

// §3-§4: a critical task, its id, and the user's control law / actuator.
inline rt::TaskConfig task;
inline rt::TaskId taskId{};
inline std::uint32_t myControlLaw() { return 0; }
inline void actuate(std::span<const std::uint32_t>) {}

// §6: an assembled guest program.
inline fi::TaskImage image;

// §7: a hand-rolled parallel study.
inline std::size_t items = 1000;
inline std::size_t chunk = 100;
inline std::vector<util::Rng> rngs;
inline double oneTrial(util::Rng&) { return 0.0; }

// §8: the network.
inline net::TdmaConfig busConfig;
inline net::NodeId nodeId = 0;

// §10: schedulability inputs.
inline Duration singleCopyWcet = Duration::milliseconds(2);
inline Duration checkOverhead = Duration::microseconds(100);
inline Duration period = Duration::milliseconds(10);
inline Duration deadline = Duration::milliseconds(10);

// docs/ANALYSIS.md: analyzer consumers.
inline tem::SignatureMonitor monitor;
inline Duration perCycle = Duration::microseconds(1);
inline Duration check = Duration::microseconds(100);
inline Duration T = Duration::milliseconds(10);
inline Duration D = Duration::milliseconds(10);
inline int prio = 10;

}  // namespace docctx

using namespace docctx;  // NOLINT
