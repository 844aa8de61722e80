// The repository benchmark. One binary runs one workload:
//
//   perfbench --workload paper_jobs|dc_stream|dc_faults --seed N
//             --seconds S --trace 0|1 [--size full|small] [--trace-dir DIR]
//   perfbench --catalog        (prints the metric catalog as JSON)
//
// Workloads (README.md in this directory gives the reasons):
//   paper_jobs  Median, Frequent Anchortext and Spam Quantiles one after
//               another on the paper's 30-node testbed (4 GB nodes, 1 GB
//               heaps, SpongeFile spilling, background grep). Closed loop.
//   dc_stream   open-loop replay of Figure-1 trace jobs on 512 nodes in 16
//               racks: every reduce task spills through the full cascade,
//               reads the file back, verifies it and deletes it.
//   dc_faults   dc_stream plus a seeded fault schedule (fail-stop crashes,
//               a tracker-shard outage, gray faults) with replication on.
//
// Every unit of work (one paper job, one datacenter replay) runs in a
// forked child process, so a crash in the program under test fails only
// that unit's operations and the run still reports. Children report back
// through a pipe as "key value..." lines.
//
// The untraced iterations repeat until --seconds of host time have passed
// and give the end-to-end metrics. With --trace 1 one more iteration runs
// with obs::Tracer on; the per-layer metrics come from it. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics.

#include <signal.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/random.h"
#include "common/units.h"
#include "mapred/task_attempt.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "sponge/failure.h"
#include "sponge/sponge_file.h"
#include "workload/jobs.h"
#include "workload/testbed.h"
#include "workload/trace.h"

using namespace spongefiles;

namespace {

// ---------------------------------------------------------------------------
// Metric catalog. `clock` says what a value measures: "host" (time or
// memory on the machine running the benchmark), "sim" (simulated time,
// deterministic per seed) or "count" (deterministic per seed).

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
  const char* clock;   // "host" | "sim" | "count"
  const char* layer;   // module the value is read from, or "end_to_end"
  bool end_to_end;
  const char* moves;   // the end-to-end metric and workload it should move
};

constexpr MetricDef kCatalog[] = {
    // End-to-end: reported on every workload.
    {"setup_s", "s", "lower", "host", "end_to_end", true,
     "CPU time to build the testbed, datasets and trace plan, at the "
     "reference host speed; median of repeated set-ups"},
    {"host_run_s", "s", "lower", "host", "end_to_end", true,
     "CPU time of the timed simulation, tracing off, at the reference host "
     "speed; median over iterations"},
    {"peak_rss_mb", "MB", "lower", "host", "end_to_end", true,
     "largest resident set of any unit process"},
    {"task_latency_p50_s", "s", "lower", "sim", "end_to_end", true,
     "dc_*: due time to completion of each spill task; paper_jobs: "
     "map and reduce task runtimes of the completed jobs"},
    {"task_latency_p99_s", "s", "lower", "sim", "end_to_end", true,
     "as task_latency_p50_s; a failed dc task counts at the limit"},
    {"job_latency_p50_s", "s", "lower", "sim", "end_to_end", true,
     "dc_*: arrival to the job's last task; paper_jobs: runtime of each "
     "completed job"},
    {"job_latency_p99_s", "s", "lower", "sim", "end_to_end", true,
     "as job_latency_p50_s; a dc job with a failed task counts at the limit"},
    {"makespan_s", "s", "lower", "sim", "end_to_end", true,
     "dc_*: first arrival to last completion stamp; paper_jobs: summed "
     "runtime of the completed jobs"},
    // Per-layer: reported by the traced iteration.
    {"failed_ratio", "ratio", "lower", "count", "workload", false,
     "failed over attempted operations (jobs in paper_jobs, tasks in dc_*)"},
    {"median_job_s", "s", "lower", "sim", "workload", false,
     "paper_jobs runtime of Median; 0 when it failed or did not run"},
    {"anchortext_job_s", "s", "lower", "sim", "workload", false,
     "paper_jobs runtime of Frequent Anchortext; 0 when it failed"},
    {"quantiles_job_s", "s", "lower", "sim", "workload", false,
     "paper_jobs runtime of Spam Quantiles; 0 when it failed"},
    {"sim.events", "count", "lower", "count", "sim", false,
     "host_run_s on dc_stream, barely on paper_jobs"},
    {"sim.host_us_per_event", "us", "lower", "host", "sim", false,
     "host_run_s on dc_stream, barely on paper_jobs"},
    {"sim.lane0_event_share", "ratio", "lower", "count", "sim", false,
     "host_run_s on dc_stream (rack-sharded engine; 1 on paper_jobs)"},
    {"cluster.disk.busy_s", "s", "lower", "sim", "cluster", false,
     "*_job_s on paper_jobs (the grep contends for the disk)"},
    {"cluster.disk.seeks", "count", "lower", "count", "cluster", false,
     "*_job_s on paper_jobs"},
    {"cluster.disk.queue_depth_p99", "count", "lower", "count", "cluster",
     false, "*_job_s on paper_jobs"},
    {"cluster.cache.hit_ratio", "ratio", "higher", "count", "cluster", false,
     "*_job_s on paper_jobs"},
    {"cluster.ssd.bytes", "bytes", "lower", "count", "cluster", false,
     "task_latency_p99_s on dc_stream"},
    {"cluster.ssd.busy_s", "s", "lower", "sim", "cluster", false,
     "task_latency_p99_s on dc_stream"},
    {"cluster.net.bytes", "bytes", "lower", "count", "cluster", false,
     "task_latency_p99_s on dc_stream"},
    {"cluster.net.cross_rack_bytes", "bytes", "lower", "count", "cluster",
     false, "task_latency_p99_s on dc_stream"},
    {"cluster.net.core_util_max", "ratio", "lower", "sim", "cluster", false,
     "task_latency_p99_s on dc_stream"},
    {"sponge.bytes_share.local", "ratio", "higher", "count", "sponge", false,
     "*_job_s on paper_jobs, task_latency_p99_s on dc_stream"},
    {"sponge.bytes_share.remote_rack", "ratio", "higher", "count", "sponge",
     false, "*_job_s on paper_jobs, task_latency_p99_s on dc_stream"},
    {"sponge.bytes_share.remote_cross_rack", "ratio", "lower", "count",
     "sponge", false,
     "*_job_s on paper_jobs, task_latency_p99_s on dc_stream"},
    {"sponge.bytes_share.ssd", "ratio", "lower", "count", "sponge", false,
     "*_job_s on paper_jobs, task_latency_p99_s on dc_stream"},
    {"sponge.bytes_share.disk", "ratio", "lower", "count", "sponge", false,
     "*_job_s on paper_jobs, task_latency_p99_s on dc_stream"},
    {"sponge.bytes_share.dfs", "ratio", "lower", "count", "sponge", false,
     "*_job_s on paper_jobs, task_latency_p99_s on dc_stream"},
    {"sponge.write_p50_ms", "ms", "lower", "sim", "sponge", false,
     "task_latency_* on dc_*; Append..Close (0 on paper_jobs)"},
    {"sponge.write_p99_ms", "ms", "lower", "sim", "sponge", false,
     "task_latency_* on dc_*; Append..Close (0 on paper_jobs)"},
    {"sponge.read_p50_ms", "ms", "lower", "sim", "sponge", false,
     "task_latency_* on dc_*; the ReadNext loop (0 on paper_jobs)"},
    {"sponge.read_p99_ms", "ms", "lower", "sim", "sponge", false,
     "task_latency_* on dc_*; the ReadNext loop (0 on paper_jobs)"},
    {"sponge.alloc.stale_ratio", "ratio", "lower", "count", "sponge", false,
     "task_latency_p99_s on dc_stream"},
    {"sponge.tracker.queries", "count", "lower", "count", "sponge", false,
     "task_latency_p99_s on dc_stream"},
    {"sponge.pool.lock_wait_s", "s", "lower", "sim", "sponge", false,
     "*_job_s on paper_jobs"},
    {"sponge.rpc.retries", "count", "lower", "count", "sponge", false,
     "task_latency_p99_s and failed_ratio on dc_faults; 0 on dc_stream"},
    {"sponge.rpc.timeouts", "count", "lower", "count", "sponge", false,
     "task_latency_p99_s and failed_ratio on dc_faults; 0 on dc_stream"},
    {"sponge.read.hedge.win_ratio", "ratio", "higher", "count", "sponge",
     false, "task_latency_p99_s on dc_faults; 0 on dc_stream"},
    {"sponge.read.failover.win_ratio", "ratio", "higher", "count", "sponge",
     false, "task_latency_p99_s and failed_ratio on dc_faults"},
    {"sponge.repair.bytes", "bytes", "lower", "count", "sponge", false,
     "task_latency_p99_s on dc_faults; 0 on dc_stream"},
    {"sponge.task.reruns", "count", "lower", "count", "sponge", false,
     "task_latency_p99_s and failed_ratio on dc_faults; 0 on dc_stream"},
    {"sponge.leaked_chunks", "count", "lower", "count", "sponge", false,
     "failed_ratio on dc_*: chunks still allocated after every task "
     "deleted its file and ended, before the GC sweep (0 on paper_jobs)"},
    {"mapred.straggler_s", "s", "lower", "sim", "mapred", false,
     "*_job_s on paper_jobs (sum of each job's slowest reduce)"},
    {"mapred.map_phase_s", "s", "lower", "sim", "mapred", false,
     "*_job_s on paper_jobs (sum of each job's slowest map)"},
    {"mapred.spill_bytes", "bytes", "lower", "count", "mapred", false,
     "*_job_s on paper_jobs; includes pig DataBag spills"},
    {"mapred.merge.runs_written", "count", "lower", "count", "mapred", false,
     "*_job_s on paper_jobs"},
    {"obs.trace_overhead_ratio", "ratio", "lower", "host", "obs", false,
     "traced iteration host_run_s over the untraced median"},
    {"obs.trace_events", "count", "lower", "count", "obs", false,
     "events the program's tracer recorded in the traced iteration"},
    {"bench.probe_ns", "ns", "lower", "host", "bench", false,
     "host speed: the speed probe's time per step, median over the run; "
     "host_run_s and setup_s are scaled by its reference value over this"},
};

// ---------------------------------------------------------------------------
// Small helpers.

double HostSeconds() {
  // lint: det-ok(benchmark wall-clock measurement; never feeds simulated state)
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// Linear-interpolation quantile (numpy's default); 0 for an empty set.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// CPU time of the calling process. Time the hypervisor gives to other
// guests (steal) passes on the wall clock but not on this one.
double CpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Reads how fast the host runs. The benchmark's virtual machine shares its
// host's last-level cache and memory with other tenants, and their load
// changes the simulator's speed by up to 3x for minutes at a time; CPU time
// does not remove that. The probe is a short, fixed amount of the
// simulator's most exposed kind of work: dependent loads over a table
// larger than a core's own cache. While a unit runs, the parent process
// (otherwise idle) takes a reading every kProbeIntervalMs on another core,
// and the unit's host times are scaled by kProbeRefNs over their mean.
class SpeedProbe {
 public:
  // Host time at the reference speed is the measured CPU time times
  // kProbeRefNs over the mean reading. The constant only sets the scale:
  // on a 2.1 GHz Xeon host the probe read 155-190 ns while a replay ran
  // beside it.
  static constexpr double kProbeRefNs = 100.0;
  static constexpr int kProbeIntervalMs = 200;

  SpeedProbe() {
    void* p = ::mmap(nullptr, kSlots * sizeof(uint32_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (p == MAP_FAILED) {
      std::perror("perfbench: speed probe table");
      std::exit(1);
    }
    // Units are forked children; they never map the table, so it adds
    // nothing to their resident set.
    ::madvise(p, kSlots * sizeof(uint32_t), MADV_DONTFORK);
    next_ = static_cast<uint32_t*>(p);
    for (uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    // Sattolo's shuffle: one cycle through every slot, so each load
    // depends on the one before and the prefetcher cannot guess it.
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }
  ~SpeedProbe() { ::munmap(next_, kSlots * sizeof(uint32_t)); }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Nanoseconds of CPU time per step of one pass.
  double Read() {
    double t = CpuSeconds();
    uint32_t at = at_;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    at_ = at;
    double ns = (CpuSeconds() - t) * 1e9 / kSteps;
    readings_.push_back(ns);
    return ns;
  }

  // Median of every reading so far.
  double MedianNs() const { return Median(readings_); }

 private:
  static constexpr uint32_t kSlots = 1u << 22;  // 16 MiB of uint32_t
  static constexpr int kSteps = 1 << 16;  // about 3-10 ms

  uint32_t* next_ = nullptr;
  uint32_t at_ = 0;
  std::vector<double> readings_;
};

// FNV-1a 64 over simulated outputs: equal digests mean identical results.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
};

// A child's report: each key maps to one or more whitespace-free tokens.
using Report = std::map<std::string, std::vector<std::string>>;

double Num(const Report& report, const std::string& key) {
  auto it = report.find(key);
  if (it == report.end() || it->second.empty()) return 0;
  return std::strtod(it->second[0].c_str(), nullptr);
}

std::string Str(const Report& report, const std::string& key) {
  auto it = report.find(key);
  return it == report.end() || it->second.empty() ? "" : it->second[0];
}

// Writes report lines to the pipe back to the parent.
class Emitter {
 public:
  explicit Emitter(int fd) : fd_(fd) {}

  void Line(const std::string& key, const std::string& tokens) {
    std::string line = key + " " + tokens + "\n";
    const char* p = line.data();
    size_t left = line.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n <= 0) return;  // parent gone; nothing useful left to do
      p += n;
      left -= static_cast<size_t>(n);
    }
  }
  void Value(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Line(key, buf);
  }
  void Values(const std::string& key, const std::vector<double>& vs) {
    std::string tokens;
    char buf[64];
    for (double v : vs) {
      std::snprintf(buf, sizeof(buf), "%.17g ", v);
      tokens += buf;
    }
    Line(key, tokens);
  }

 private:
  int fd_;
};

struct UnitOutcome {
  Report report;
  bool crashed = false;  // killed by a signal (segfault, abort, watchdog)
  int signal = 0;
  int exit_code = 0;
  double cpu_s = 0;  // the child's whole CPU time
  double max_rss_mb = 0;
  double probe_ns = 0;  // host speed: mean of the readings while it ran
  // Scales a host time the child measured to the reference host speed.
  double ToRef(double host_s) const {
    return host_s * SpeedProbe::kProbeRefNs / probe_ns;
  }
};

// Runs `body` in a forked child with a watchdog, collecting its report.
UnitOutcome RunUnit(unsigned watchdog_s, SpeedProbe* probe,
                    const std::function<int(Emitter*)>& body) {
  UnitOutcome out;
  out.probe_ns = SpeedProbe::kProbeRefNs;  // if the child never starts
  int fds[2];
  if (::pipe(fds) != 0) {
    out.crashed = true;
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.crashed = true;
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    // The child never outlives the benchmark, nor its share of the time.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::alarm(std::max(1u, watchdog_s));
    Emitter emitter(fds[1]);
    int code = body(&emitter);
    ::close(fds[1]);
    // _exit: the parent's buffered stdio must not be flushed twice.
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  double probe_sum = 0;
  int probe_reads = 0;
  pollfd report{fds[0], POLLIN, 0};
  while (true) {
    int ready = ::poll(&report, 1, SpeedProbe::kProbeIntervalMs);
    if (ready == 0) {
      probe_sum += probe->Read();
      ++probe_reads;
      continue;
    }
    ssize_t n = ready > 0 ? ::read(fds[0], buf, sizeof(buf)) : -1;
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  if (probe_reads == 0) {  // a unit shorter than one interval
    probe_sum = probe->Read();
    probe_reads = 1;
  }
  out.probe_ns = probe_sum / probe_reads;
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  out.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFSIGNALED(status)) {
    out.crashed = true;
    out.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
  }
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string key, token;
    tokens >> key;
    if (key.empty()) continue;
    std::vector<std::string>& values = out.report[key];
    values.clear();
    while (tokens >> token) values.push_back(token);
  }
  return out;
}

// Program spans recorded by obs::Tracer::Default() in a traced iteration.
// They are counted and dropped as the run goes (a datacenter replay emits
// millions); the benchmark's own spans are kept and written at the end.
uint64_t DrainProgramTrace() {
  obs::Tracer& tracer = obs::Tracer::Default();
  uint64_t n = tracer.event_count();
  tracer.Clear();
  return n;
}

// Per-layer readings shared by both workload kinds: the registry counters
// the program keeps plus public accessors of the cluster and engine.
// `span` is the simulated interval the utilization figures divide by.
void EmitLayerReadings(Emitter* out, sim::Engine& engine,
                       cluster::Cluster& cluster, Duration span) {
  obs::Registry& registry = obs::Registry::Default();
  auto counter = [&](const char* name, const obs::Labels& labels = {}) {
    return static_cast<double>(registry.counter(name, labels)->value());
  };
  out->Value("events", static_cast<double>(engine.events_processed()));
  out->Value("lane0_events", static_cast<double>(engine.lane_events(0)));
  double disk_busy = 0;
  double ssd_busy = 0;
  for (size_t n = 0; n < cluster.size(); ++n) {
    disk_busy += ToSeconds(cluster.node(n).disk().busy_time());
    ssd_busy += ToSeconds(cluster.node(n).ssd().busy_time());
  }
  out->Value("disk_busy_s", disk_busy);
  out->Value("ssd_busy_s", ssd_busy);
  out->Value("disk_seeks", counter("cluster.disk.seeks"));
  out->Value("disk_qd_p99", static_cast<double>(
      registry.histogram("cluster.disk.queue_depth")->Quantile(0.99)));
  out->Value("cache_hits", counter("cluster.cache.hits"));
  out->Value("cache_misses", counter("cluster.cache.misses"));
  out->Value("ssd_bytes", counter("cluster.ssd.bytes", {{"op", "read"}}) +
                              counter("cluster.ssd.bytes", {{"op", "write"}}));
  double cross = counter("cluster.net.bytes", {{"path", "cross-rack"}});
  out->Value("net_bytes", counter("cluster.net.bytes", {{"path", "ipc"}}) +
                              counter("cluster.net.bytes", {{"path", "rack"}}) +
                              cross);
  out->Value("net_cross_bytes", cross);
  double core_util = 0;
  cluster::Network& net = cluster.network();
  if (net.num_racks() > 1 && span > 0) {
    for (size_t r = 0; r < net.num_racks(); ++r) {
      Duration busy =
          std::max(net.rack_uplink_busy(r), net.rack_downlink_busy(r));
      core_util = std::max(core_util, static_cast<double>(busy) /
                                          static_cast<double>(span));
    }
  }
  out->Value("core_util_max", core_util);
  out->Value("spill_local",
             counter("sponge.spill.bytes", {{"medium", "local-memory"}}));
  out->Value("spill_remote_rack", counter("sponge.spill.remote.bytes",
                                          {{"locality", "rack-local"}}));
  out->Value("spill_remote_cross", counter("sponge.spill.remote.bytes",
                                           {{"locality", "cross-rack"}}));
  out->Value("spill_ssd",
             counter("sponge.spill.bytes", {{"medium", "local-ssd"}}));
  out->Value("spill_disk",
             counter("sponge.spill.bytes", {{"medium", "local-disk"}}));
  out->Value("spill_dfs", counter("sponge.spill.bytes", {{"medium", "dfs"}}));
  double decisions = 0;
  for (const char* reason :
       {"pool-full", "tracker-stale", "tracker-down", "rack-restricted",
        "server-sick", "rpc-timeout", "ssd-full", "ssd-worn",
        "affinity-hit"}) {
    decisions += counter("sponge.alloc.decisions", {{"reason", reason}});
  }
  out->Value("alloc_decisions", decisions);
  out->Value("alloc_stale", counter("sponge.alloc.stale_retries"));
  out->Value("tracker_queries", counter("sponge.tracker.queries"));
  out->Value("lock_wait_s", counter("sponge.pool.lock_wait_us") / 1e6);
  out->Value("rpc_retries", counter("sponge.rpc.retries"));
  out->Value("rpc_timeouts", counter("sponge.rpc.timeouts"));
  out->Value("hedge_issued", counter("sponge.read.hedge.issued"));
  out->Value("hedge_won", counter("sponge.read.hedge.won"));
  out->Value("failover_attempted", counter("sponge.read.failover.attempted"));
  out->Value("failover_won", counter("sponge.read.failover.won"));
  out->Value("repair_bytes", counter("sponge.repair.bytes"));
  out->Value("merge_runs", counter("mapred.merge.runs_written"));
  double reruns = 0;
  for (const char* reason : {"timeout", "checksum", "chunk-lost", "aborted",
                             "resource-exhausted", "other"}) {
    reruns += counter("mapred.task.rerun.reason", {{"reason", reason}});
  }
  out->Value("reruns", reruns);
}

// ---------------------------------------------------------------------------
// paper_jobs

enum class PaperJob { kMedian, kAnchortext, kQuantiles };
constexpr PaperJob kPaperJobs[] = {PaperJob::kMedian, PaperJob::kAnchortext,
                                   PaperJob::kQuantiles};

const char* PaperJobKey(PaperJob job) {
  switch (job) {
    case PaperJob::kMedian:
      return "median";
    case PaperJob::kAnchortext:
      return "anchortext";
    case PaperJob::kQuantiles:
      return "quantiles";
  }
  return "?";
}

// The latencies read this value when no job completed: well above the
// slowest paper job at the benchmark's scale.
constexpr double kPaperJobLimitS = 3600;

struct PaperShape {
  // Dataset divisor against the paper's sizes (10 GB web pages, 1M
  // numbers, 4 TB grep input). Spam Quantiles crashes at divisors 1 and 2
  // (a use-after-free in the SpongeFile prefetch path), so the full shape
  // keeps 2: the defect must stay visible as a failed operation.
  uint64_t divisor = 2;
  int setup_reps = 11;
};

// Everything a paper job needs before it can run: the set-up phase.
struct PaperSetup {
  std::unique_ptr<workload::Testbed> bed;
  std::unique_ptr<workload::NumbersDataset> numbers;
  std::unique_ptr<workload::WebDataset> web;
  std::unique_ptr<workload::ScanDataset> grep;
  mapred::JobConfig config;
  mapred::JobConfig background;
};

std::unique_ptr<PaperSetup> MakePaperSetup(PaperJob job, uint64_t seed,
                                           const PaperShape& shape) {
  auto setup = std::make_unique<PaperSetup>();
  workload::TestbedConfig bed_config;
  bed_config.node_memory = GiB(4);
  bed_config.heap_per_slot = GiB(1);
  bed_config.sponge_memory = GiB(1);
  setup->bed = std::make_unique<workload::Testbed>(bed_config);
  cluster::Dfs* dfs = &setup->bed->dfs();
  if (job == PaperJob::kMedian) {
    workload::NumbersDatasetConfig data;
    data.count = 1000001 / shape.divisor;
    data.seed = seed;
    setup->numbers =
        std::make_unique<workload::NumbersDataset>(dfs, "numbers", data);
    setup->config = workload::MakeMedianJob(setup->numbers.get(),
                                            mapred::SpillMode::kSponge);
  } else {
    workload::WebDatasetConfig data;
    data.total_bytes = GiB(10) / shape.divisor;
    data.seed = seed;
    setup->web = std::make_unique<workload::WebDataset>(dfs, "web", data);
    setup->config =
        job == PaperJob::kAnchortext
            ? workload::MakeAnchortextJob(setup->web.get(),
                                          mapred::SpillMode::kSponge)
            : workload::MakeSpamQuantilesJob(setup->web.get(),
                                             mapred::SpillMode::kSponge);
  }
  setup->grep = std::make_unique<workload::ScanDataset>(
      dfs, "grepdata", 4ull * GiB(1024) / shape.divisor);
  setup->background = workload::MakeGrepJob(setup->grep.get(), nullptr);
  return setup;
}

// The answer checks of the paper's evaluation.
bool PaperAnswerCorrect(PaperJob job, const PaperSetup& setup,
                        const mapred::JobResult& result) {
  switch (job) {
    case PaperJob::kMedian:
      return result.output.size() == 1 &&
             result.output[0].number == setup.numbers->expected_median();
    case PaperJob::kAnchortext:
      for (const mapred::Record& row : result.output) {
        if (row.key == "english" && !row.fields.empty() &&
            row.fields[0] == "term0") {
          return true;
        }
      }
      return false;
    case PaperJob::kQuantiles: {
      std::string giant = workload::WebDataset::DomainName(0);
      for (const mapred::Record& row : result.output) {
        if (row.key == giant && !row.fields.empty() &&
            row.fields[0] == "q50" && row.number > 0.45 &&
            row.number < 0.55) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

// Host-time spans use their own trace process id so they never mix with
// the simulated-time lanes (pid = node id).
constexpr uint64_t kHostPid = 1u << 20;

// Child body: set up (several times, reporting the median), run the job,
// check its answer and report.
int PaperJobChild(Emitter* out, PaperJob job, uint64_t seed,
                  const PaperShape& shape, bool traced,
                  const std::string& trace_path) {
  obs::Tracer bench_tracer;
  bench_tracer.set_enabled(traced);
  double child_start = CpuSeconds();
  std::vector<double> setups;
  std::unique_ptr<PaperSetup> setup;
  for (int r = 0; r < shape.setup_reps; ++r) {
    setup.reset();
    double t = CpuSeconds();
    setup = MakePaperSetup(job, seed, shape);
    setups.push_back(CpuSeconds() - t);
    bench_tracer.CompleteEvent(
        static_cast<int64_t>((t - child_start) * 1e6),
        static_cast<int64_t>(setups.back() * 1e6), kHostPid, 0, "bench",
        "setup.host");
  }
  out->Value("setup_s", Median(setups));
  obs::Registry::Default().ResetValues();
  obs::Tracer::Default().set_enabled(traced);
  workload::Testbed& bed = *setup->bed;
  double start = CpuSeconds();
  // Lets the parent time a job that crashes: its CPU time at the end less
  // this.
  out->Value("job_start_cpu_s", start);
  SimTime sim_start = bed.engine().now();
  Result<mapred::JobResult> result =
      bed.RunJob(std::move(setup->config), std::move(setup->background));
  double run_s = CpuSeconds() - start;
  obs::Tracer::Default().set_enabled(false);
  out->Value("run_s", run_s);
  out->Value("trace_events", static_cast<double>(DrainProgramTrace()));
  if (!result.ok()) {
    out->Line("status", "error");
    return 0;
  }
  bench_tracer.CompleteEvent(sim_start, result->runtime, 0,
                             static_cast<uint64_t>(job) + 1, "bench",
                             std::string("job.") + PaperJobKey(job));
  out->Line("status", "ok");
  out->Value("correct", PaperAnswerCorrect(job, *setup, *result) ? 1 : 0);
  out->Value("runtime_s", ToSeconds(result->runtime));
  std::vector<double> tasks;
  double map_phase = 0;
  double spill_bytes = 0;
  for (const mapred::TaskStats& t : result->map_tasks) {
    tasks.push_back(ToSeconds(t.runtime));
    map_phase = std::max(map_phase, ToSeconds(t.runtime));
    spill_bytes += static_cast<double>(t.spill.bytes_spilled);
  }
  for (const mapred::TaskStats& t : result->reduce_tasks) {
    tasks.push_back(ToSeconds(t.runtime));
    spill_bytes += static_cast<double>(t.spill.bytes_spilled);
  }
  out->Values("tasks_s", tasks);
  const mapred::TaskStats* straggler = result->straggler();
  out->Value("straggler_s",
             straggler != nullptr ? ToSeconds(straggler->runtime) : 0.0);
  out->Value("map_phase_s", map_phase);
  out->Value("spill_bytes", spill_bytes);
  EmitLayerReadings(out, bed.engine(), bed.cluster(), result->runtime);
  Digest digest;
  digest.U64(static_cast<uint64_t>(result->runtime));
  digest.U64(bed.engine().events_processed());
  for (const mapred::TaskStats& t : result->reduce_tasks) {
    digest.U64(static_cast<uint64_t>(t.runtime));
  }
  out->Line("sim_digest", std::to_string(digest.h));
  if (traced && !trace_path.empty()) {
    Status written = bench_tracer.WriteFile(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "trace not written: %s\n",
                   written.ToString().c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// dc_stream / dc_faults

// Per-node capacities, per-task sizes and slots are bench_datacenter's
// (8 MiB sponge, 16 MiB SSD, trace bytes / 8 clamped to 256 KiB-32 MiB, 2
// slots per node).
struct DcShape {
  size_t racks = 16;
  size_t nodes_per_rack = 32;
  // Total spill demand of the replay: jobs are drawn from the trace until
  // their tasks add up to this many bytes, so every seed offers the same
  // work (the job count varies a little between seeds).
  uint64_t demand_bytes = 256ull << 30;
  size_t max_jobs = 4000;  // trace length the jobs are drawn from
  // Open-loop offered load (simulated): job j arrives once the jobs
  // before it have offered their bytes at this rate, so a large job is
  // followed by a longer gap. Up to about 0.8 GiB/s the spill fits in
  // sponge memory (task p50 about 7 ms, no SSD or disk bytes). Near
  // 1 GiB/s memory runs out, the cascade's lower rungs take bytes and
  // tasks queue for slots, and some seeds tip over while others do not.
  // 1.3 GiB/s is past that knee for every seed: all rungs take bytes and
  // the slot backlog drains within about 40 s of the last arrival.
  double offered_bytes_per_s = 1.3 * (1ull << 30);
  size_t max_tasks_per_job = 20;
  // Per-task spill demand, scaled down from the trace's reduce-input
  // bytes so the replay stays tractable while keeping the Figure-1 skew
  // shape.
  uint64_t size_divisor = 8;
  uint64_t min_task_bytes = 256 * 1024;
  uint64_t max_task_bytes = 32ull * 1024 * 1024;
  uint64_t sponge_per_node = 8ull * 1024 * 1024;
  uint64_t ssd_per_node = 16ull * 1024 * 1024;
  int64_t slots_per_node = 2;
  // Set-ups timed before the replay, and as many again after it. The
  // host's speed drifts over seconds; two points in time keep one slow
  // moment from setting the figure.
  int setup_reps = 10;
};

constexpr int kMaxAttempts = 4;
constexpr SimTime kFirstArrival = Seconds(2);
// A task or job that fails counts at this latency.
constexpr double kDcLimitS = 3600;

struct DcTaskPlan {
  uint32_t job = 0;
  uint32_t node = 0;
  uint64_t bytes = 0;
  SimTime due = 0;
};

// Completion stamps of one task (simulated time).
struct DcTaskStamps {
  SimTime acquired = 0;
  SimTime write_start = 0;
  SimTime write_end = 0;
  SimTime read_end = 0;
  SimTime done = 0;
  bool ok = false;        // finished with a verified read-back
  bool mismatch = false;  // read back bytes differ from what was written
  uint64_t task_ids[kMaxAttempts] = {};  // TaskContext id of each attempt
};

struct DcSetup {
  sim::Engine engine;
  std::unique_ptr<sim::Sharding> sharding;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;
  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  std::vector<DcTaskPlan> plan;
  std::vector<SimTime> job_arrival;
  uint64_t planned_bytes = 0;
};

std::unique_ptr<DcSetup> MakeDcSetup(const DcShape& shape, uint64_t seed,
                                     bool faults) {
  auto s = std::make_unique<DcSetup>();
  const size_t num_nodes = shape.racks * shape.nodes_per_rack;
  cluster::TopologyConfig topo;
  topo.num_racks = shape.racks;
  topo.nodes_per_rack = shape.nodes_per_rack;
  topo.oversubscription = 4.0;
  topo.node.sponge_memory = shape.sponge_per_node;
  topo.node.ssd.capacity = shape.ssd_per_node;
  cluster::ClusterConfig cc = cluster::MakeClusterConfig(topo);
  // The replay runs on the rack-sharded engine with its serial driver
  // (one lane per rack, no threads): the reference schedule of the
  // sharded engines, so sim.lane0_event_share shows how evenly the racks'
  // work spreads over the lanes.
  std::vector<size_t> rack_of(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    rack_of[i] = i / shape.nodes_per_rack;
  }
  s->sharding = std::make_unique<sim::Sharding>(
      &s->engine,
      sim::RackShardPlan(rack_of, shape.racks,
                         cc.network.latency + cc.network.cross_rack_latency),
      /*threads=*/0u);
  s->cluster = std::make_unique<cluster::Cluster>(&s->engine, cc);
  s->dfs = std::make_unique<cluster::Dfs>(s->cluster.get());
  sponge::SpongeConfig sponge_config;
  sponge_config.allow_cross_rack = true;
  if (faults) {
    sponge_config.rpc.hedge_reads = true;
    sponge_config.replication.enabled = true;
  }
  // One explicit GC sweep after the replay (the leak check) instead of
  // the periodic one: a periodic sweep on a replica holder can reclaim
  // chunks of a task whose home server crashed while the task still runs.
  sponge::SpongeServerConfig server_config;
  server_config.gc_period = Minutes(60);
  s->env = std::make_unique<sponge::SpongeEnv>(s->cluster.get(), s->dfs.get(),
                                               sponge_config,
                                               sponge::ChunkPoolConfig{},
                                               server_config);
  for (size_t n = 0; n < num_nodes; ++n) {
    s->slots.push_back(
        std::make_unique<sim::Semaphore>(&s->engine, shape.slots_per_node));
  }

  // The trace plan: Figure-1 jobs arriving at a fixed offered load,
  // each placed on the rack with the fewest bytes planned so far (a
  // load-balancing job scheduler) with its tasks round-robin over that
  // rack's nodes from where the rack's previous job stopped, so a job's
  // skew lands on one rack's slots and memory.
  workload::TraceConfig trace_config;
  trace_config.num_jobs = shape.max_jobs;
  trace_config.seed = seed;
  std::vector<workload::TraceJob> jobs =
      workload::TraceSynthesizer(trace_config).Generate();
  std::vector<uint64_t> rack_bytes(shape.racks, 0);
  std::vector<size_t> rack_cursor(shape.racks, 0);
  for (size_t j = 0; j < jobs.size() && s->planned_bytes < shape.demand_bytes;
       ++j) {
    SimTime arrival =
        kFirstArrival + Seconds(static_cast<double>(s->planned_bytes) /
                                shape.offered_bytes_per_s);
    size_t home_rack = static_cast<size_t>(
        std::min_element(rack_bytes.begin(), rack_bytes.end()) -
        rack_bytes.begin());
    size_t num_tasks = std::min(jobs[j].reduce_input_bytes.size(),
                                shape.max_tasks_per_job);
    for (size_t t = 0; t < num_tasks; ++t) {
      uint64_t bytes =
          static_cast<uint64_t>(jobs[j].reduce_input_bytes[t]) /
          shape.size_divisor;
      bytes = std::clamp(bytes, shape.min_task_bytes, shape.max_task_bytes);
      size_t node = home_rack * shape.nodes_per_rack +
                    (rack_cursor[home_rack] + t) % shape.nodes_per_rack;
      s->plan.push_back({static_cast<uint32_t>(j),
                         static_cast<uint32_t>(node), bytes, arrival});
      rack_bytes[home_rack] += bytes;
      s->planned_bytes += bytes;
    }
    rack_cursor[home_rack] += num_tasks;
    s->job_arrival.push_back(arrival);
  }
  return s;
}

// The seeded fault schedule of dc_faults, placed inside the arrival window:
// fail-stop crashes confined to one rack (rack-diverse replicas always
// have a survivor), one tracker-shard outage on another rack, and gray
// faults (hangs, slow RPCs, degraded links, slow disks) on random nodes.
void ScheduleFaults(sponge::FailureInjector* injector, const DcShape& shape,
                    uint64_t seed, SimTime window_end) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const size_t num_nodes = shape.racks * shape.nodes_per_rack;
  SimTime span = std::max<SimTime>(window_end - kFirstArrival, Seconds(10));
  auto at = [&](double fraction) {
    return kFirstArrival +
           static_cast<SimTime>(fraction * static_cast<double>(span));
  };
  size_t crash_rack = rng.Uniform(shape.racks);
  size_t first = rng.Uniform(shape.nodes_per_rack);
  size_t crashes = std::max<size_t>(1, shape.nodes_per_rack / 8);
  for (size_t i = 0; i < crashes; ++i) {
    size_t node = crash_rack * shape.nodes_per_rack +
                  (first + i) % shape.nodes_per_rack;
    injector->ScheduleCrash(node, at(0.45), /*downtime=*/0);
  }
  size_t outage_rack = (crash_rack + 1 + rng.Uniform(shape.racks - 1)) %
                       shape.racks;
  injector->ScheduleTrackerShardOutage(outage_rack, at(0.3), Seconds(20));
  size_t gray = std::max<size_t>(2, num_nodes / 128);
  for (size_t i = 0; i < gray; ++i) {
    double f = 0.1 + 0.7 * static_cast<double>(i) / static_cast<double>(gray);
    injector->ScheduleHang(rng.Uniform(num_nodes), at(f), Seconds(3));
    injector->ScheduleRpcDelay(rng.Uniform(num_nodes), at(f), Millis(50),
                               Seconds(15));
    injector->ScheduleLinkDegradation(rng.Uniform(num_nodes), at(f), 0.25,
                                      Millis(2), Seconds(15));
    injector->ScheduleDiskSlowdown(rng.Uniform(num_nodes), at(f), 4.0,
                                   Seconds(20));
  }
}

// Deterministic payload for one task: a 16-byte random literal every 64
// KiB, zeros between, so every chunk carries content the read-back check
// depends on while the buffers stay compact.
ByteRuns MakePayload(uint64_t bytes, uint64_t seed) {
  ByteRuns data;
  Rng rng(seed);
  char marker[16];
  uint64_t remaining = bytes;
  while (remaining > 0) {
    for (char& c : marker) c = static_cast<char>('a' + rng.Uniform(26));
    uint64_t lit = std::min<uint64_t>(sizeof(marker), remaining);
    data.AppendLiteral(Slice(marker, static_cast<size_t>(lit)));
    remaining -= lit;
    uint64_t zeros = std::min<uint64_t>(64 * 1024 - lit, remaining);
    data.AppendZeros(zeros);
    remaining -= zeros;
  }
  return data;
}

struct DcState {
  DcSetup* setup = nullptr;
  uint64_t seed = 0;
  std::vector<DcTaskStamps> stamps;
  size_t tasks_done = 0;
};

// One reduce task: take a slot, spill the payload, read it all back and
// verify it, delete the file. A failed attempt re-runs with a fresh task
// context and file, as the job tracker would relaunch it.
sim::Task<> DcTask(DcState* state, uint32_t id) {
  DcSetup* setup = state->setup;
  sim::Engine* engine = &setup->engine;
  const DcTaskPlan& plan = setup->plan[id];
  DcTaskStamps& stamps = state->stamps[id];
  sim::Semaphore* slot = setup->slots[plan.node].get();
  co_await slot->Acquire();
  stamps.acquired = engine->now();
  sponge::SpongeEnv* env = setup->env.get();
  const uint64_t payload_seed = state->seed * 0x100000001b3ull + id + 1;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    sponge::TaskContext task = env->StartTask(plan.node);
    stamps.task_ids[attempt - 1] = task.task_id;
    sponge::SpongeFile file(env, &task,
                            "pb.t" + std::to_string(id) + ".a" +
                                std::to_string(attempt));
    ByteRuns expected = MakePayload(plan.bytes, payload_seed);
    stamps.write_start = engine->now();
    Status status = co_await file.Append(expected);
    if (status.ok()) status = co_await file.Close();
    stamps.write_end = engine->now();
    uint64_t offset = 0;
    bool mismatch = false;
    while (status.ok()) {
      Result<ByteRuns> chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        status = chunk.status();
        break;
      }
      if (chunk->empty()) break;
      uint64_t n = chunk->size();
      if (offset + n > plan.bytes ||
          chunk->Checksum64() != expected.SubRange(offset, n).Checksum64()) {
        mismatch = true;
      }
      offset += n;
    }
    if (status.ok() && offset != plan.bytes) mismatch = true;
    stamps.read_end = engine->now();
    co_await file.Delete();
    env->EndTask(task);
    if (status.ok()) {
      stamps.ok = !mismatch;
      stamps.mismatch = mismatch;
      break;
    }
    if (attempt < kMaxAttempts) mapred::CountTaskRerun(status);
  }
  slot->Release();
  stamps.done = engine->now();
  ++state->tasks_done;
}

// The leak check, run once every task has deleted its file and ended.
struct LeakCheck {
  uint64_t leaked_chunks = 0;  // still allocated before the GC sweep
  std::vector<uint32_t> ops;   // operations that left chunks behind
  uint64_t unreclaimed = 0;    // still allocated after the GC sweep
  bool swept = false;
};

// Every chunk still allocated in a server's pool was left behind by the
// program; its owner's task id names the operation it counts against.
void FindLeaks(sponge::SpongeEnv* env, size_t num_nodes,
               const std::vector<DcTaskStamps>& stamps, LeakCheck* check) {
  std::map<uint64_t, uint32_t> op_of_task;
  for (size_t i = 0; i < stamps.size(); ++i) {
    for (uint64_t id : stamps[i].task_ids) {
      if (id != 0) op_of_task[id] = static_cast<uint32_t>(i);
    }
  }
  std::vector<bool> leaked(stamps.size(), false);
  for (size_t n = 0; n < num_nodes; ++n) {
    for (const auto& [handle, owner] :
         env->server(n).pool().AllocatedChunks()) {
      ++check->leaked_chunks;
      auto it = op_of_task.find(owner.task_id);
      if (it != op_of_task.end()) leaked[it->second] = true;
    }
  }
  for (size_t i = 0; i < leaked.size(); ++i) {
    if (leaked[i]) check->ops.push_back(static_cast<uint32_t>(i));
  }
}

// Then a GC sweep of every server must reclaim all of them.
sim::Task<> SweepAll(sponge::SpongeEnv* env, size_t num_nodes,
                     LeakCheck* check) {
  for (size_t n = 0; n < num_nodes; ++n) {
    (void)co_await env->server(n).GcSweep();
    check->unreclaimed += env->server(n).pool().AllocatedChunks().size();
  }
  check->swept = true;
}

// Writes the benchmark's own spans of one replay: a root span per task
// (due time to completion) with children for the slot wait, the write,
// the read-back and the delete, all keyed by the task's op id, plus one
// span per job from arrival to its last task.
void WriteDcTrace(const DcSetup& setup, const DcState& state,
                  const std::vector<SimTime>& job_done, double setup_host_s,
                  const std::string& path) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.CompleteEvent(0, static_cast<int64_t>(setup_host_s * 1e6), kHostPid,
                       0, "bench", "setup.host");
  for (size_t i = 0; i < setup.plan.size(); ++i) {
    const DcTaskPlan& p = setup.plan[i];
    const DcTaskStamps& s = state.stamps[i];
    uint64_t tid = i + 1;
    obs::TraceArgs op = {obs::TraceArg::Num("op", static_cast<uint64_t>(i))};
    tracer.CompleteEvent(p.due, s.done - p.due, p.node, tid, "bench",
                         "dc.task", op);
    tracer.CompleteEvent(p.due, s.acquired - p.due, p.node, tid, "bench",
                         "slot.wait", op);
    tracer.CompleteEvent(s.write_start, s.write_end - s.write_start, p.node,
                         tid, "bench", "sponge.write", op);
    tracer.CompleteEvent(s.write_end, s.read_end - s.write_end, p.node, tid,
                         "bench", "sponge.read", op);
    tracer.CompleteEvent(s.read_end, s.done - s.read_end, p.node, tid,
                         "bench", "sponge.delete", op);
  }
  for (size_t j = 0; j < setup.job_arrival.size(); ++j) {
    tracer.CompleteEvent(setup.job_arrival[j],
                         job_done[j] - setup.job_arrival[j], kHostPid + 1,
                         j + 1, "bench", "dc.job",
                         {obs::TraceArg::Num("job", static_cast<uint64_t>(j))});
  }
  Status written = tracer.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "trace not written: %s\n",
                 written.ToString().c_str());
  }
}

int DcChild(Emitter* out, const DcShape& shape, uint64_t seed, bool faults,
            bool traced, const std::string& trace_path) {
  std::vector<double> setups;
  std::unique_ptr<DcSetup> setup;
  auto time_setups = [&] {
    for (int r = 0; r < shape.setup_reps; ++r) {
      setup.reset();
      double t = CpuSeconds();
      setup = MakeDcSetup(shape, seed, faults);
      setups.push_back(CpuSeconds() - t);
    }
  };
  time_setups();
  out->Value("setup_s", Median(setups));
  out->Value("offered_gib_per_s", shape.offered_bytes_per_s / (1ull << 30));
  out->Value("arrival_window_s", ToSeconds(setup->job_arrival.back()) -
                                     ToSeconds(kFirstArrival));
  out->Value("jobs", static_cast<double>(setup->job_arrival.size()));
  out->Value("attempted", static_cast<double>(setup->plan.size()));
  out->Value("planned_gib",
             static_cast<double>(setup->planned_bytes) / (1ull << 30));
  obs::Registry::Default().ResetValues();
  obs::Tracer::Default().set_enabled(traced);

  sim::Engine& engine = setup->engine;
  sponge::SpongeEnv& env = *setup->env;
  const size_t num_nodes = setup->cluster->size();
  const size_t num_tasks = setup->plan.size();
  DcState state;
  state.setup = setup.get();
  state.seed = seed;
  state.stamps.resize(num_tasks);

  double start = CpuSeconds();
  env.tracker().Start();
  env.StartServices();
  sponge::FailureInjector injector(&env, seed);
  if (faults) {
    ScheduleFaults(&injector, shape, seed, setup->job_arrival.back());
  }
  for (uint32_t id = 0; id < num_tasks; ++id) {
    const DcTaskPlan& p = setup->plan[id];
    engine.SpawnOnShard(engine.lane_of_node(p.node), p.due,
                        DcTask(&state, id));
  }
  uint64_t trace_events = 0;
  const SimTime deadline = Minutes(24 * 60.0);
  while (state.tasks_done < num_tasks && engine.now() < deadline) {
    engine.RunUntil(engine.now() + Seconds(10));
    trace_events += DrainProgramTrace();
  }
  double run_s = CpuSeconds() - start;
  obs::Tracer::Default().set_enabled(false);
  trace_events += DrainProgramTrace();
  out->Value("run_s", run_s);
  out->Value("trace_events", static_cast<double>(trace_events));

  // Completion stamps give every latency; the polling clock above only
  // decides when to stop.
  // Arrivals are in plan order.
  const SimTime first_due = setup->plan.front().due;
  SimTime last_done = first_due;
  std::vector<double> task_lat, write_ms, read_ms, job_lat;
  // A job is done at its last task's completion; 0 while any is missing.
  std::vector<SimTime> job_done(setup->job_arrival.size(), 0);
  std::vector<bool> job_missing(setup->job_arrival.size(), false);
  uint64_t failed = 0, mismatched = 0;
  Digest digest;
  for (size_t i = 0; i < num_tasks; ++i) {
    const DcTaskPlan& p = setup->plan[i];
    const DcTaskStamps& s = state.stamps[i];
    bool finished = s.done > 0;
    if (finished) last_done = std::max(last_done, s.done);
    job_done[p.job] = std::max(job_done[p.job], s.done);
    job_missing[p.job] = job_missing[p.job] || !finished;
    if (!finished || !s.ok) {
      ++failed;
      task_lat.push_back(kDcLimitS);
    } else {
      task_lat.push_back(ToSeconds(s.done - p.due));
      write_ms.push_back(ToMillis(s.write_end - s.write_start));
      read_ms.push_back(ToMillis(s.read_end - s.write_end));
    }
    mismatched += s.mismatch ? 1 : 0;
    digest.U64(static_cast<uint64_t>(s.done));
    digest.U64(static_cast<uint64_t>(s.write_end));
    digest.U64(s.ok ? 1 : 0);
  }
  for (size_t j = 0; j < setup->job_arrival.size(); ++j) {
    job_lat.push_back(job_missing[j]
                          ? kDcLimitS
                          : ToSeconds(job_done[j] - setup->job_arrival[j]));
  }
  Duration makespan = last_done - first_due;
  EmitLayerReadings(out, engine, *setup->cluster, makespan);

  // Leak check: once the repair loop has drained, no server (crashed ones
  // included) may hold a chunk. An operation that left one behind fails.
  LeakCheck leaks;
  engine.RunUntil(engine.now() + Seconds(30));
  FindLeaks(&env, num_nodes, state.stamps, &leaks);
  engine.Spawn(SweepAll(&env, num_nodes, &leaks));
  engine.RunUntil(engine.now() + Seconds(60));
  uint64_t leaked_ops = 0;
  for (uint32_t i : leaks.ops) {
    if (state.stamps[i].ok) ++leaked_ops;  // not already counted as failed
  }

  out->Value("failed", static_cast<double>(failed + leaked_ops));
  out->Value("mismatched", static_cast<double>(mismatched));
  out->Value("leaked_ops", static_cast<double>(leaks.ops.size()));
  out->Value("leaked_chunks", static_cast<double>(leaks.leaked_chunks));
  out->Value("unreclaimed_chunks",
             static_cast<double>(leaks.swept ? leaks.unreclaimed
                                             : leaks.leaked_chunks));
  out->Value("task_p50_s", Quantile(task_lat, 0.5));
  out->Value("task_p99_s", Quantile(task_lat, 0.99));
  out->Value("job_p50_s", Quantile(job_lat, 0.5));
  out->Value("job_p99_s", Quantile(job_lat, 0.99));
  out->Value("makespan_s", ToSeconds(makespan));
  out->Value("write_p50_ms", Quantile(write_ms, 0.5));
  out->Value("write_p99_ms", Quantile(write_ms, 0.99));
  out->Value("read_p50_ms", Quantile(read_ms, 0.5));
  out->Value("read_p99_ms", Quantile(read_ms, 0.99));
  digest.U64(engine.events_processed());
  digest.U64(leaks.leaked_chunks);
  out->Line("sim_digest", std::to_string(digest.h));
  if (traced && !trace_path.empty()) {
    WriteDcTrace(*setup, state, job_done, Median(setups), trace_path);
  }

  env.StopServices();
  engine.RunUntil(engine.now() + Seconds(30));
  // Reclaim the service loops while the cluster objects are still alive.
  engine.DrainDetached();
  time_setups();
  out->Value("setup_s", Median(setups));
  return 0;
}

// ---------------------------------------------------------------------------
// Iterations, aggregation, output.

// "small" is the self-test shape; "full" is what the benchmark measures.
PaperShape PaperShapeFor(const std::string& size) {
  PaperShape shape;
  if (size == "small") {
    shape.divisor = 64;
    shape.setup_reps = 2;
  }
  return shape;
}

DcShape DcShapeFor(const std::string& size) {
  DcShape shape;
  if (size == "small") {
    shape.racks = 4;
    shape.nodes_per_rack = 4;
    shape.demand_bytes = 1ull << 30;
    shape.max_jobs = 200;
    shape.offered_bytes_per_s = 0.01 * (1ull << 30);
    shape.max_tasks_per_job = 12;
    shape.setup_reps = 2;
  }
  return shape;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string size = "full";
  std::string trace_dir;
};

// One iteration of a workload, aggregated over its units.
// Host times are CPU seconds at the reference host speed.
struct Iteration {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;  // run_s as measured, before scaling
  double max_rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // failures, in plain words
  std::string sim_digest;          // all simulated results of the iteration
  std::map<std::string, double> metrics;
};

// Sums each reading over units; the readings in kMax take the maximum.
struct LayerSums {
  std::map<std::string, double> v;
  void Add(const Report& report) {
    static const char* const kMax[] = {"disk_qd_p99", "core_util_max"};
    for (const auto& [key, tokens] : report) {
      if (tokens.size() != 1) continue;
      double x = std::strtod(tokens[0].c_str(), nullptr);
      bool is_max = false;
      for (const char* m : kMax) is_max = is_max || key == m;
      v[key] = is_max ? std::max(v[key], x) : v[key] + x;
    }
  }
  double operator[](const std::string& key) const {
    auto it = v.find(key);
    return it == v.end() ? 0 : it->second;
  }
};

void FillLayerMetrics(const LayerSums& s, double run_s, Iteration* it) {
  auto& m = it->metrics;
  m["sim.events"] = s["events"];
  m["sim.host_us_per_event"] = Ratio(run_s * 1e6, s["events"]);
  m["sim.lane0_event_share"] = Ratio(s["lane0_events"], s["events"]);
  m["cluster.disk.busy_s"] = s["disk_busy_s"];
  m["cluster.disk.seeks"] = s["disk_seeks"];
  m["cluster.disk.queue_depth_p99"] = s["disk_qd_p99"];
  m["cluster.cache.hit_ratio"] =
      Ratio(s["cache_hits"], s["cache_hits"] + s["cache_misses"]);
  m["cluster.ssd.bytes"] = s["ssd_bytes"];
  m["cluster.ssd.busy_s"] = s["ssd_busy_s"];
  m["cluster.net.bytes"] = s["net_bytes"];
  m["cluster.net.cross_rack_bytes"] = s["net_cross_bytes"];
  m["cluster.net.core_util_max"] = s["core_util_max"];
  double local = s["spill_local"], rack = s["spill_remote_rack"],
         cross = s["spill_remote_cross"], ssd = s["spill_ssd"],
         disk = s["spill_disk"], dfs = s["spill_dfs"];
  double total = local + rack + cross + ssd + disk + dfs;
  m["sponge.bytes_share.local"] = Ratio(local, total);
  m["sponge.bytes_share.remote_rack"] = Ratio(rack, total);
  m["sponge.bytes_share.remote_cross_rack"] = Ratio(cross, total);
  m["sponge.bytes_share.ssd"] = Ratio(ssd, total);
  m["sponge.bytes_share.disk"] = Ratio(disk, total);
  m["sponge.bytes_share.dfs"] = Ratio(dfs, total);
  m["sponge.alloc.stale_ratio"] =
      Ratio(s["alloc_stale"], s["alloc_decisions"]);
  m["sponge.tracker.queries"] = s["tracker_queries"];
  m["sponge.pool.lock_wait_s"] = s["lock_wait_s"];
  m["sponge.rpc.retries"] = s["rpc_retries"];
  m["sponge.rpc.timeouts"] = s["rpc_timeouts"];
  m["sponge.read.hedge.win_ratio"] = Ratio(s["hedge_won"], s["hedge_issued"]);
  m["sponge.read.failover.win_ratio"] =
      Ratio(s["failover_won"], s["failover_attempted"]);
  m["sponge.repair.bytes"] = s["repair_bytes"];
  m["mapred.merge.runs_written"] = s["merge_runs"];
}

std::string SignalName(int sig) {
  const char* name = ::strsignal(sig);
  return name != nullptr ? name : "signal " + std::to_string(sig);
}

Iteration RunPaperIteration(const Options& options, bool traced,
                            const std::function<unsigned()>& watchdog,
                            SpeedProbe* probe) {
  const PaperShape shape = PaperShapeFor(options.size);
  Iteration it;
  LayerSums layers;
  std::vector<double> task_lat, job_lat;
  Digest digest;
  double straggler = 0, map_phase = 0, spill = 0, reruns = 0;
  for (PaperJob job : kPaperJobs) {
    std::string key = PaperJobKey(job);
    std::string trace_path;
    if (traced && !options.trace_dir.empty()) {
      trace_path = options.trace_dir + "/paper_jobs-" + key + ".trace.json";
    }
    UnitOutcome unit = RunUnit(watchdog(), probe, [&](Emitter* out) {
      return PaperJobChild(out, job, options.seed, shape, traced, trace_path);
    });
    const Report& r = unit.report;
    ++it.attempted;
    it.setup_s += unit.ToRef(Num(r, "setup_s"));
    it.max_rss_mb = std::max(it.max_rss_mb, unit.max_rss_mb);
    it.metrics["obs.trace_events"] += Num(r, "trace_events");
    bool ok = !unit.crashed && unit.exit_code == 0 && Str(r, "status") == "ok";
    double run_s = 0;
    if (ok) {
      run_s = Num(r, "run_s");
    } else if (r.count("job_start_cpu_s") != 0) {
      // Host time the job ran before it died.
      run_s = unit.cpu_s - Num(r, "job_start_cpu_s");
    }
    it.cpu_s += run_s;
    it.run_s += unit.ToRef(run_s);
    if (ok && Num(r, "correct") != 1) {
      ok = false;
      it.correct = false;
      it.notes.push_back(key + ": wrong answer");
    } else if (!ok) {
      it.notes.push_back(
          key + ": " +
          (unit.crashed ? "crashed (" + SignalName(unit.signal) + ")"
                        : "job returned an error status"));
    }
    double runtime = ok ? Num(r, "runtime_s") : 0.0;
    it.metrics[key + "_job_s"] = runtime;
    if (ok) {
      auto tasks = r.find("tasks_s");
      if (tasks != r.end()) {
        for (const std::string& t : tasks->second) {
          task_lat.push_back(std::strtod(t.c_str(), nullptr));
        }
      }
      job_lat.push_back(runtime);
      layers.Add(r);
      straggler += Num(r, "straggler_s");
      map_phase += Num(r, "map_phase_s");
      spill += Num(r, "spill_bytes");
      reruns += Num(r, "reruns");
      digest.U64(std::strtoull(Str(r, "sim_digest").c_str(), nullptr, 10));
    } else {
      ++it.failed;
      digest.U64(0);
    }
  }
  // Latencies and the makespan cover the jobs that completed; a failed job
  // shows in `failed`. Only if none completed do they read the limit.
  if (job_lat.empty()) {
    task_lat.push_back(kPaperJobLimitS);
    job_lat.push_back(kPaperJobLimitS);
  }
  double makespan = 0;
  for (double j : job_lat) makespan += j;
  auto& m = it.metrics;
  m["task_latency_p50_s"] = Quantile(task_lat, 0.5);
  m["task_latency_p99_s"] = Quantile(task_lat, 0.99);
  m["job_latency_p50_s"] = Quantile(job_lat, 0.5);
  m["job_latency_p99_s"] = Quantile(job_lat, 0.99);
  m["makespan_s"] = makespan;
  FillLayerMetrics(layers, it.run_s, &it);
  m["mapred.straggler_s"] = straggler;
  m["mapred.map_phase_s"] = map_phase;
  m["mapred.spill_bytes"] = spill;
  m["sponge.task.reruns"] = reruns;
  for (const char* k : {"sponge.write_p50_ms", "sponge.write_p99_ms",
                        "sponge.read_p50_ms", "sponge.read_p99_ms"}) {
    m[k] = 0;  // the jobs' spill files are internal to mapred and pig
  }
  it.sim_digest = std::to_string(digest.h);
  return it;
}

Iteration RunDcIteration(const Options& options, bool faults, bool traced,
                         unsigned watchdog_s, SpeedProbe* probe) {
  const DcShape shape = DcShapeFor(options.size);
  std::string trace_path;
  if (traced && !options.trace_dir.empty()) {
    trace_path = options.trace_dir + "/" + options.workload + ".trace.json";
  }
  UnitOutcome unit = RunUnit(watchdog_s, probe, [&](Emitter* out) {
    return DcChild(out, shape, options.seed, faults, traced, trace_path);
  });
  const Report& r = unit.report;
  Iteration it;
  it.setup_s = unit.ToRef(Num(r, "setup_s"));
  it.max_rss_mb = unit.max_rss_mb;
  bool finished = !unit.crashed && unit.exit_code == 0 &&
                  r.count("sim_digest") != 0;
  uint64_t planned = static_cast<uint64_t>(Num(r, "attempted"));
  it.attempted = std::max<uint64_t>(planned, 1);
  auto& m = it.metrics;
  m["offered_gib_per_s"] = Num(r, "offered_gib_per_s");
  m["arrival_window_s"] = Num(r, "arrival_window_s");
  m["jobs"] = Num(r, "jobs");
  m["planned_gib"] = Num(r, "planned_gib");
  if (!finished) {
    it.failed = it.attempted;
    it.cpu_s = Num(r, "run_s");
    it.run_s = unit.ToRef(it.cpu_s);
    it.notes.push_back(unit.crashed
                           ? "replay crashed (" + SignalName(unit.signal) + ")"
                           : "replay exited with code " +
                                 std::to_string(unit.exit_code));
    for (const char* k : {"task_latency_p50_s", "task_latency_p99_s",
                          "job_latency_p50_s", "job_latency_p99_s",
                          "makespan_s"}) {
      m[k] = kDcLimitS;
    }
    FillLayerMetrics(LayerSums{}, it.run_s, &it);
    return it;
  }
  it.cpu_s = Num(r, "run_s");
  it.run_s = unit.ToRef(it.cpu_s);
  // `failed` already includes the tasks that leaked chunks.
  it.failed = std::min<uint64_t>(it.attempted,
                                 static_cast<uint64_t>(Num(r, "failed")));
  uint64_t mismatched = static_cast<uint64_t>(Num(r, "mismatched"));
  if (it.failed > 0) {
    it.notes.push_back(std::to_string(it.failed) + " tasks failed");
  }
  if (Num(r, "leaked_chunks") > 0) {
    it.notes.push_back(
        Str(r, "leaked_chunks") + " chunks left allocated after the replay (" +
        Str(r, "leaked_ops") + " tasks)");
  }
  if (Num(r, "unreclaimed_chunks") > 0) {
    it.notes.push_back(Str(r, "unreclaimed_chunks") +
                       " chunks still allocated after a GC sweep");
  }
  if (mismatched > 0) {
    it.correct = false;
    it.notes.push_back(std::to_string(mismatched) +
                       " tasks read back other bytes than they wrote");
  }
  m["task_latency_p50_s"] = Num(r, "task_p50_s");
  m["task_latency_p99_s"] = Num(r, "task_p99_s");
  m["job_latency_p50_s"] = Num(r, "job_p50_s");
  m["job_latency_p99_s"] = Num(r, "job_p99_s");
  m["makespan_s"] = Num(r, "makespan_s");
  LayerSums layers;
  layers.Add(r);
  FillLayerMetrics(layers, it.run_s, &it);
  m["sponge.write_p50_ms"] = Num(r, "write_p50_ms");
  m["sponge.write_p99_ms"] = Num(r, "write_p99_ms");
  m["sponge.read_p50_ms"] = Num(r, "read_p50_ms");
  m["sponge.read_p99_ms"] = Num(r, "read_p99_ms");
  m["sponge.task.reruns"] = Num(r, "reruns");
  m["sponge.leaked_chunks"] = Num(r, "leaked_chunks");
  m["obs.trace_events"] = Num(r, "trace_events");
  for (const char* k : {"median_job_s", "anchortext_job_s", "quantiles_job_s",
                        "mapred.straggler_s", "mapred.map_phase_s",
                        "mapred.spill_bytes"}) {
    m[k] = 0;  // no MapReduce job runs in the replay
  }
  it.sim_digest = Str(r, "sim_digest");
  return it;
}

const char* BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

void PrintCatalog() {
  std::string out = "[";
  bool first = true;
  for (const MetricDef& d : kCatalog) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\": \"";
    out += d.name;
    out += "\", \"unit\": \"";
    out += d.unit;
    out += "\", \"better\": \"";
    out += d.better;
    out += "\", \"clock\": \"";
    out += d.clock;
    out += "\", \"layer\": \"";
    out += d.layer;
    out += "\", \"end_to_end\": ";
    out += d.end_to_end ? "true" : "false";
    out += ", \"moves\": ";
    obs::AppendJsonEscaped(&out, d.moves);
    out += "}";
  }
  out += "\n]\n";
  std::fputs(out.c_str(), stdout);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      o->trace = v == "1";
    } else if (arg == "--size") {
      o->size = v;
    } else if (arg == "--trace-dir") {
      o->trace_dir = v;
    } else {
      return false;
    }
  }
  bool known = o->workload == "paper_jobs" || o->workload == "dc_stream" ||
               o->workload == "dc_faults";
  return known && (o->size == "full" || o->size == "small") &&
         o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--catalog") {
    PrintCatalog();
    return 0;
  }
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_jobs|dc_stream|dc_faults "
                 "--seed N --seconds S --trace 0|1 [--size full|small] "
                 "[--trace-dir DIR]\n       %s --catalog\n",
                 argv[0], argv[0]);
    return 2;
  }
  // The whole run must end within 180 s; each unit gets what is left.
  const double run_start = HostSeconds();
  std::function<unsigned()> watchdog = [&] {
    double left = 170.0 - (HostSeconds() - run_start);
    return static_cast<unsigned>(std::max(5.0, left));
  };
  SpeedProbe probe;
  auto iterate = [&](bool traced) {
    if (options.workload == "paper_jobs") {
      return RunPaperIteration(options, traced, watchdog, &probe);
    }
    return RunDcIteration(options, options.workload == "dc_faults", traced,
                          watchdog(), &probe);
  };

  // paper_jobs runs on the testbed's own single-lane engine; the replays
  // on the rack-sharded engine's serial driver. Neither starts threads.
  const char* engine_mode =
      options.workload == "paper_jobs" ? "legacy" : "seq (rack-sharded)";
  bool comparable = std::string(BuildType()) != "Debug" && !SanitizedBuild();
  std::printf(
      "context: workload=%s seed=%llu size=%s engine=%s threads=1 "
      "nproc=%u build=%s%s comparable=%s seconds=%g trace=%d\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.size.c_str(), engine_mode, sim::HostCores(), BuildType(), SanitizedBuild() ? "+sanitizer" : "",
      comparable ? "yes" : "NO (debug or sanitizer build)", options.seconds,
      options.trace ? 1 : 0);
  if (options.workload == "paper_jobs") {
    PaperShape shape = PaperShapeFor(options.size);
    std::printf(
        "shape: 30 nodes x 4 GiB, 1 GiB heaps and sponge, dataset divisor "
        "%llu (web %.2f GiB, %llu numbers, grep %.0f GiB), closed loop\n",
        static_cast<unsigned long long>(shape.divisor),
        10.0 / static_cast<double>(shape.divisor),
        static_cast<unsigned long long>(1000001 / shape.divisor),
        4096.0 / static_cast<double>(shape.divisor));
  } else {
    DcShape shape = DcShapeFor(options.size);
    std::printf(
        "shape: %zu racks x %zu nodes (4:1 core), %llu KiB sponge + %llu "
        "KiB SSD per node, %lld slots per node, up to %zu tasks per job\n",
        shape.racks, shape.nodes_per_rack,
        static_cast<unsigned long long>(shape.sponge_per_node >> 10),
        static_cast<unsigned long long>(shape.ssd_per_node >> 10),
        static_cast<long long>(shape.slots_per_node),
        shape.max_tasks_per_job);
  }

  // Untraced iterations until the measuring time is used up, leaving
  // room for the traced iteration inside the run's time budget.
  constexpr double kUntracedCapS = 80;
  std::vector<Iteration> runs;
  double measure_start = HostSeconds();
  do {
    runs.push_back(iterate(false));
  } while (HostSeconds() - measure_start < options.seconds &&
           HostSeconds() - run_start < kUntracedCapS);

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> notes;
  auto account = [&](const Iteration& it) {
    correct = correct && it.correct;
    attempted += it.attempted;
    failed += it.failed;
    for (const std::string& n : it.notes) {
      if (std::find(notes.begin(), notes.end(), n) == notes.end()) {
        notes.push_back(n);
      }
    }
    // Simulated results are deterministic per seed: every iteration of
    // this run must produce the same ones.
    if (it.sim_digest != runs.front().sim_digest) {
      correct = false;
      notes.push_back("simulated results differ between iterations");
    }
  };
  std::vector<double> setups, run_times, cpu_times;
  double rss = 0;
  for (const Iteration& it : runs) {
    account(it);
    setups.push_back(it.setup_s);
    run_times.push_back(it.run_s);
    cpu_times.push_back(it.cpu_s);
    rss = std::max(rss, it.max_rss_mb);
  }
  const Iteration& first = runs.front();
  std::map<std::string, double> e2e = first.metrics;
  e2e["setup_s"] = Median(setups);
  e2e["host_run_s"] = Median(run_times);
  e2e["peak_rss_mb"] = rss;
  std::map<std::string, double> layer;
  if (options.trace) {
    Iteration traced = iterate(true);
    account(traced);
    layer = traced.metrics;
    layer["obs.trace_overhead_ratio"] =
        Ratio(traced.run_s, Median(run_times));
  }
  layer["bench.probe_ns"] = probe.MedianNs();
  layer["failed_ratio"] =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));

  if (options.workload != "paper_jobs") {
    double window = first.metrics.at("arrival_window_s");
    std::printf(
        "open loop: %.3f GiB/s offered (simulated), %.0f jobs arriving over "
        "%.1f s (%.3f jobs/s), %.1f GiB of spill demand\n",
        first.metrics.at("offered_gib_per_s"), first.metrics.at("jobs"),
        window, window > 0 ? first.metrics.at("jobs") / window : 0.0,
        first.metrics.at("planned_gib"));
  }
  std::printf("iterations: %zu untraced%s\n", runs.size(),
              options.trace ? " + 1 traced" : "");
  std::printf("host speed: probe %.2f ns per step (median), reference %.0f; "
              "host_run_s is %.3f CPU seconds as measured, scaled to the "
              "reference\n",
              probe.MedianNs(), SpeedProbe::kProbeRefNs, Median(cpu_times));
  std::printf("operations: attempted=%llu failed=%llu failed_ratio=%.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), layer["failed_ratio"]);
  for (const std::string& n : notes) std::printf("failure: %s\n", n.c_str());

  // Every metric measured, by name with its unit; the result line holds
  // the end-to-end ones (--trace 0) or the per-layer ones (--trace 1).
  std::string metrics_json = "{";
  for (const MetricDef& def : kCatalog) {
    if (!def.end_to_end && !options.trace) continue;
    std::map<std::string, double>& source = def.end_to_end ? e2e : layer;
    double value = source.count(def.name) != 0 ? source[def.name] : 0.0;
    std::printf("metric %-38s %.6g %s (%s)\n", def.name, value, def.unit,
                def.clock);
    if (def.end_to_end == options.trace) continue;
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += "\"";
    metrics_json += def.name;
    metrics_json += "\": {\"value\": ";
    obs::AppendJsonDouble(&metrics_json, value);
    metrics_json += ", \"unit\": \"";
    metrics_json += def.unit;
    metrics_json += "\"}";
  }
  metrics_json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return 0;
}
