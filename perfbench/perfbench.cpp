// Repository benchmark program (see BENCHMARK.md). run.py builds this program
// and invokes it once per measured repetition:
//
//   nlft_perfbench run   <workload> <seed>               # set-up + one timed call
//   nlft_perfbench trace <workload> <seed> <spans.json>  # traced re-enactment
//
// Each invocation prints exactly one JSON line on stdout.
#include "perfbench.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

namespace {

// experiments, chunk size and workers are fixed per workload; see
// BENCHMARK.md for why each workload exists.
constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    {"system_fi", true, true, true, 600, 10, 2, 20000, 0},
    {"system_fi_forked", true, false, false, 600, 10, 2, 0, 0},
    {"machine_fi", false, false, false, 40000, 500, 2, 0, 4000},
}};

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

void Json::key(const std::string& key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += escape(key);
  body_ += "\":";
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::num(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += escape(value);
  body_ += '"';
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

Json& Json::flag(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

std::string jsonArray(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool optimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

double peakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the parent's high-water
  // mark across fork+exec into ru_maxrss, which would report the launcher.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string factsJson(const WorkloadSpec& workload, std::uint64_t seed) {
  Json facts;
  facts.num("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .str("compiler", __VERSION__)
      .str("build_type", NLFT_PERFBENCH_BUILD_TYPE)
      .flag("optimized", optimizedBuild())
      .num("workers", static_cast<std::uint64_t>(workload.workers))
      .num("chunk_size", static_cast<std::uint64_t>(workload.chunkSize))
      .num("experiments", static_cast<std::uint64_t>(workload.experiments))
      .num("seed", seed);
  return facts.dump();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string mode = argc > 1 ? argv[1] : "";
  if (argc < 4 || (mode != "run" && mode != "trace") || (mode == "trace" && argc < 5)) {
    std::fprintf(stderr,
                 "usage: %s run <workload> <seed>\n"
                 "       %s trace <workload> <seed> <spans.json>\n",
                 argv[0], argv[0]);
    return 2;
  }
  const WorkloadSpec* workload = findWorkload(argv[2]);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", argv[2]);
    return 2;
  }
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(argv[3], &end, 10);
  if (end == argv[3] || *end != '\0') {
    std::fprintf(stderr, "seed must be a non-negative integer, got '%s'\n", argv[3]);
    return 2;
  }
  if (!optimizedBuild()) {
    std::fprintf(stderr, "refusing to report timings from a build without optimisation (%s)\n",
                 NLFT_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    return mode == "run" ? runTimed(*workload, seed) : runTraced(*workload, seed, argv[4]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nlft_perfbench: %s\n", error.what());
    return 1;
  }
}
