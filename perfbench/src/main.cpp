// rocket_perfbench: runs one workload of the repo benchmark and prints its
// results as tab-separated records on stdout, for perfbench/run.py:
//
//   metric <name> <value>        one measured number (units: BENCHMARK.json)
//   info   <key>  <text>         context recorded beside the metrics
//   gate   <attempted> <failed>  the correctness gate's pair counts
//
// Usage: rocket_perfbench --workload NAME --params JSON --seed N
//        --seconds S --trace 0|1 --out-dir DIR [--perturb LEFT,RIGHT]
// --perturb nudges one compare result by an ulp (the gate's self-test).

#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  try {
    if (argc % 2 == 0) throw std::invalid_argument("every flag takes a value");
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument " + flag);
      }
      args[flag.substr(2)] = argv[i + 1];
    }
    const auto get = [&](const std::string& name, const std::string& fallback) {
      const auto it = args.find(name);
      return it == args.end() ? fallback : it->second;
    };
    perfbench::RunOptions o;
    o.workload = get("workload", "");
    o.params = rocket::apps::json_parse(get("params", ""));
    o.seed = std::stoull(get("seed", "1"));
    o.seconds = std::stod(get("seconds", "10"));
    o.trace = get("trace", "0") == "1";
    o.out_dir = get("out-dir", ".bench_out");
    if (args.count("perturb")) {
      const std::string pair = args.at("perturb");
      const auto comma = pair.find(',');
      if (comma == std::string::npos) {
        throw std::invalid_argument("--perturb wants LEFT,RIGHT");
      }
      o.perturb = perfbench::Perturbation{
          static_cast<std::uint32_t>(std::stoul(pair.substr(0, comma))),
          static_cast<std::uint32_t>(std::stoul(pair.substr(comma + 1)))};
    }
    if (o.workload.empty() || !o.params.is_object()) {
      throw std::invalid_argument("--workload and --params are required");
    }

    const auto result = perfbench::run_workload(o);
    for (const auto& [name, value] : result.metrics) {
      std::printf("metric\t%s\t%.17g\n", name.c_str(), value);
    }
    for (const auto& [key, text] : result.info) {
      std::printf("info\t%s\t%s\n", key.c_str(), text.c_str());
    }
    std::printf("info\tbuild_type\t%s\n", PERFBENCH_BUILD_TYPE);
    std::printf("gate\t%llu\t%llu\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rocket_perfbench: %s\n", e.what());
    return 2;
  }
}
