// rpe_perfbench: the compiled half of the repository benchmark.
// perfbench/run.py builds it, starts `rpe_cli serve-tcp` where a workload
// needs a server, and calls one subcommand per step:
//
//   rpe_perfbench repro --seed N [--trace 1 --trace-out t.json]
//   rpe_perfbench serve-prep --seed N --dir D
//   rpe_perfbench serve-client --port P --server-pid Q --seed N --seconds S
//       --model M --stream R [--trace 1 --trace-out t.json]
//   rpe_perfbench serve-layers --seed N --model M --stream R --retrains K
//   rpe_perfbench stall-selftest
//
// Each prints one JSON object as its last stdout line: metrics (value,
// unit, sample count), attempted/failed counts, output checks and info.
// A failed output check exits 1.
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "serve.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad argument: ") + argv[i]);
    }
    flags[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  return flags;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

perfbench::ClientOptions ClientFlags(
    const std::map<std::string, std::string>& f) {
  perfbench::ClientOptions o;
  o.port = static_cast<uint16_t>(std::stoul(Get(f, "port", "0")));
  o.server_pid = std::stoi(Get(f, "server-pid", "0"));
  o.seed = std::stoull(Get(f, "seed", "1"));
  o.seconds = std::stod(Get(f, "seconds", "10"));
  o.model = Get(f, "model", "model.rpsn");
  o.stream = Get(f, "stream", "stream.rpsn");
  o.trace = Get(f, "trace", "0") == "1";
  o.trace_out = Get(f, "trace-out", "");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: rpe_perfbench <repro|serve-prep|serve-client|"
                 "serve-layers|stall-selftest> [--flag value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const auto flags = ParseFlags(argc, argv);
    const uint64_t seed = std::stoull(Get(flags, "seed", "1"));
    if (cmd == "repro") {
      return perfbench::RunRepro(seed, Get(flags, "trace", "0") == "1",
                                 Get(flags, "trace-out", ""));
    }
    if (cmd == "serve-prep") {
      return perfbench::RunServePrep(seed, Get(flags, "dir", "."));
    }
    if (cmd == "serve-client") {
      return perfbench::RunServeClient(ClientFlags(flags));
    }
    if (cmd == "serve-layers") {
      return perfbench::RunServeLayers(
          ClientFlags(flags), std::stoul(Get(flags, "retrains", "0")));
    }
    if (cmd == "stall-selftest") return perfbench::RunStallSelfTest();
  } catch (const std::exception& e) {
    std::cerr << "rpe_perfbench " << cmd << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "unknown subcommand: " << cmd << "\n";
  return 2;
}
