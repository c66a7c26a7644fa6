// costream_e2e — end-to-end benchmark program for the sharded durable stack.
// README.md in this directory describes the workloads and metrics; run.py
// builds this program and drives it.
//
//   costream_e2e --workload W --seed S --data-dir D [--seconds T] [--quick]
//                [--trace FILE]
//   costream_e2e --self-test find|scan|reopen --data-dir D
//
// Prints progress to stderr and one JSON object to stdout. Exit status: 0
// when every answer matched the model, 3 when any operation failed or
// disagreed with it, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rounds.hpp"

namespace {

using namespace e2e;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "costream_e2e: %s\n"
               "usage: costream_e2e --workload ingest|read_mixed|scan_hot|churn "
               "--seed S --data-dir D [--seconds T] [--quick] [--trace FILE]\n"
               "       costream_e2e --self-test find|scan|reopen --data-dir D\n",
               why);
  std::exit(2);
}

bool parse_workload(const std::string& s, Workload& w) {
  if (s == "ingest") w = Workload::kIngest;
  else if (s == "read_mixed") w = Workload::kReadMixed;
  else if (s == "scan_hot") w = Workload::kScanHot;
  else if (s == "churn") w = Workload::kChurn;
  else return false;
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload_name = value();
      if (!parse_workload(o.workload_name, o.workload)) usage("unknown workload");
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--data-dir") {
      o.data_dir = value();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--trace") {
      o.traced = true;
      o.trace_out = value();
    } else if (a == "--self-test") {
      // One wrong expectation per check kind, each on the workload that
      // runs that check; the oracle must catch it (exit 3).
      const std::string k = value();
      o.quick = true;
      if (k == "find") {
        o.plant = Plant::kFind;
        o.workload_name = "read_mixed";
      } else if (k == "scan") {
        o.plant = Plant::kScan;
        o.workload_name = "scan_hot";
      } else if (k == "reopen") {
        o.plant = Plant::kReopen;
        o.workload_name = "churn";
      } else {
        usage("unknown self-test kind");
      }
      parse_workload(o.workload_name, o.workload);
      have_workload = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("no workload");
  if (o.data_dir.empty()) usage("no --data-dir");
  return o;
}

void print_metrics(const char* key, const std::vector<Metric>& ms) {
  std::printf(",\"%s\":{", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%llu}",
                i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str(), static_cast<unsigned long long>(ms[i].samples));
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::filesystem::create_directories(o.data_dir);
  const std::string fs = fs_type(o.data_dir);
  const std::string hw = probe_hw_counters();
  std::fprintf(stderr, "workload %s seed %llu: filesystem %s, hw_counters: %s\n",
               o.workload_name.c_str(), static_cast<unsigned long long>(o.seed),
               fs.c_str(), hw.c_str());

  Result r;
  if (o.traced) {
    Tracer::instance().enable();
    r = Bench<TracedShard>(o).run();
    if (!Tracer::instance().write_chrome(o.trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", o.trace_out.c_str());
      return 2;
    }
  } else {
    r = Bench<storage::DurableDictionary>(o).run();
  }
  std::filesystem::remove_all(o.data_dir);

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"quick\":%s,"
              "\"rounds\":%d,\"filesystem\":\"%s\",\"hw_counters\":\"%s\","
              "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"digest\":\"%016llx\"",
              o.workload_name.c_str(), static_cast<unsigned long long>(o.seed),
              o.traced ? "true" : "false", o.quick ? "true" : "false", r.rounds,
              fs.c_str(), hw.c_str(), r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.digest));
  print_metrics("metrics", r.metrics);
  print_metrics("layers", r.layers);
  print_metrics("extra", r.extra);
  std::printf("}\n");
  return r.failed == 0 ? 0 : 3;
}
