// perfbench — the 2PCP benchmark binary (perfbench/run.py runs it).
//
//   perfbench setup  --workload=W --seed=N --dir=D
//   perfbench run    --workload=W --dir=D --seconds=T --trace=0|1
//                    [--trace-out=FILE]
//   perfbench worker --root=STORE --port=P --id=I [--trace-dir=D]
//
// `setup` prepares one workload in D and prints its set-up times as JSON;
// `run` times the workload's public call against that set-up for T seconds
// and prints one JSON line with gate counts and metrics; `worker` is the
// exec target of the distributed workload's forked worker processes.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench setup --workload=W --seed=N --dir=D\n"
               "       perfbench run --workload=W --dir=D --seconds=T "
               "--trace=0|1 [--trace-out=FILE]\n"
               "       perfbench worker --root=STORE --port=P --id=I "
               "[--trace-dir=D]\n");
  return 2;
}

/// Parses "--key=value" / "--key value" flags after the subcommand.
bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      (*out)[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      (*out)[arg] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  perfbench::RegisterTraceEnv();

  if (command == "worker") {
    if (!flags.count("root") || !flags.count("port") || !flags.count("id")) {
      return Usage();
    }
    return perfbench::ServeWorker(flags["root"], std::atoi(flags["port"].c_str()),
                                  std::atoi(flags["id"].c_str()),
                                  flags["trace-dir"]);
  }

  const perfbench::Workload* w = perfbench::FindWorkload(flags["workload"]);
  if (w == nullptr || flags["dir"].empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 flags["workload"].c_str());
    return Usage();
  }
  if (command == "setup") {
    const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
    return perfbench::Setup(*w, seed, flags["dir"]) ? 0 : 1;
  }
  if (command == "run") {
    perfbench::RunConfig config;
    config.dir = flags["dir"];
    config.self_exe = SelfExe();
    config.seconds = std::atof(flags["seconds"].c_str());
    config.trace = flags["trace"] == "1";
    config.trace_path = flags["trace-out"];
    if (config.seconds <= 0.0 || config.self_exe.empty()) return Usage();
    return perfbench::Run(*w, config) ? 0 : 1;
  }
  return Usage();
}
