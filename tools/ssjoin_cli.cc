// ssjoin — command-line set-similarity joins.
//
// Subcommands:
//   generate   synthesize a dataset (address / dblp strings, or sets)
//   stats      print collection statistics for a dataset file
//   jaccard    exact (or LSH) jaccard self-join
//   edit       exact edit-distance string self-join
//   weighted   weighted-jaccard (IDF) self-join
//
// Input formats: --format strings (one string per line, tokenized on
// whitespace) or --format sets (one whitespace-separated list of integer
// element ids per line). Output: one "id1<TAB>id2" pair per line
// (0-based input line numbers) to --out (default stdout).
//
// Examples:
//   ssjoin generate --kind address --n 100000 --out addr.txt
//   ssjoin jaccard --input addr.txt --gamma 0.85 --algo pen --out pairs.tsv
//   ssjoin edit --input addr.txt --k 2 --out dup.tsv
//   ssjoin weighted --input addr.txt --gamma 0.8 --algo wen

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "baselines/lsh.h"
#include "baselines/prefix_filter.h"
#include "baselines/probe_count.h"
#include "core/parameter_advisor.h"
#include "core/partenum_jaccard.h"
#include "core/ssjoin.h"
#include "core/string_join.h"
#include "core/wtenum.h"
#include "data/generators.h"
#include "data/loader.h"
#include "data/serialization.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "relational/sql_ssjoin.h"
#include "text/idf.h"
#include "text/tokenizer.h"
#include "tools/flags.h"

namespace ssjoin::tools {
namespace {

constexpr const char* kUsage = R"(usage: ssjoin <command> [flags]

commands:
  generate --kind address|dblp|sets --n <count> --out <file>
           [--seed <n>] [--dup-fraction <f>] [--typos <n>]
           (a .bin extension with --kind sets writes the binary format)
  stats    --input <file> [--format strings|sets|bin]
  jaccard  --input <file> --gamma <g> [--algo pen|pf|lsh|probecount|paircount]
           [--format strings|sets|bin] [--accuracy <f>] [--out <file>]
           [--threads <n>] [--time]
           [guardrail flags] [observability flags]
  edit     --input <file> --k <n> [--algo pen|pf] [--q <n>] [--out <file>]
           [--time] [observability flags]
  weighted --input <file> --gamma <g> [--algo wen|wpf|wlsh] [--out <file>]
           [--threads <n>] [--time]
           [guardrail flags] [observability flags]
  explain  --input <file> --gamma <g> [--format strings|sets|bin]
           [--sample <n>] [--threads <n>] [--explain-out <file>] [--dbms]

--threads selects the join parallelism for the signature-based
algorithms (pen, pf, lsh, wen, wpf, wlsh): 1 = serial (default),
0 = one thread per core, N = exactly N. Output is identical for every
value.

guardrail flags (jaccard / weighted, signature-based algorithms only;
0 = limit off, the default):
  --deadline-ms <n>          abort the join after n milliseconds
  --memory-budget-mb <n>     abort when tracked join allocations pass n MiB
  --max-candidate-ratio <f>  abort when verified candidates exceed
                             f * max(1, results) — candidate explosion
  --disk-budget-mb <n>       abort when spill files written by the
                             out-of-core path pass n MiB
A tripped guardrail exits with "error: Cancelled/Deadline exceeded/
Resource exhausted: ..." and no pairs are written.

spill flags (jaccard / weighted, signature-based algorithms only):
  --spill off|auto|force  out-of-core policy: "auto" degrades to the
                          disk-partitioned join instead of tripping the
                          memory budget, "force" always spills (the
                          output is byte-identical either way); default
                          reads the SSJOIN_SPILL environment variable,
                          unset means off
  --spill-dir <dir>       base directory for the run's (always-removed)
                          spill files; default is the system temp dir
  --spill-partitions <n>  on-disk partition count (default 8)

observability flags (signature-based algorithms):
  --trace-out <file>    write the span trace: a ".jsonl" extension
                        selects the deterministic JSONL stream (byte-
                        identical for every --threads value), anything
                        else the Chrome trace_event JSON for
                        about:tracing / Perfetto
  --metrics-out <file>  write the metrics snapshot as deterministic JSONL
  --report              print a human-readable run report to stderr
  --explain-out <file>  (jaccard / weighted) write the EXPLAIN report —
                        chosen parameters, the advisor's search table
                        when the advisor ran, and the estimate-vs-actual
                        drift table — as deterministic JSONL; with
                        --report the human rendering also goes to stderr
  --metrics-format jsonl|openmetrics
                        format for --metrics-out: the deterministic JSONL
                        stream (default) or the OpenMetrics/Prometheus
                        text exposition of every metric
  --log-out <file>      (jaccard / weighted) append structured JSONL log
                        records — join lifecycle, spill degradation and
                        retries, progress heartbeats; "-" logs to stderr
  --log-level debug|info|warn|error
                        minimum level for --log-out (default info;
                        join_start events are debug)
  --progress-interval-ms <n>
                        (jaccard / weighted) emit a "progress" heartbeat
                        record every n milliseconds while the join runs:
                        live metric values plus guardrail budget readings
                        (phase, memory/disk charge, elapsed). Goes to
                        --log-out, or stderr without one. SIGUSR1 forces
                        an immediate beat.
Traces and metrics are still written when a guardrail trips — the trip
cause appears as a span event and a guard.trips.* counter.

explain runs the full accountability loop without writing pairs: it
tunes (n1, n2) with the F2 parameter advisor (searching at the
equi-sized hamming threshold for the input's average set size, sample
size --sample, default 2000), executes the PartEnum jaccard self-join
with the tuned shape, and prints the advisor search table plus the
predicted-vs-actual drift ratios to stdout. --explain-out also writes
the deterministic JSONL report; --dbms additionally executes the
DBMS-backed plan and prints (and exports) its EXPLAIN operator tree.
)";

Status WritePairs(const std::vector<SetPair>& pairs,
                  const std::string& out_path) {
  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (!out) return Status::IOError("cannot open " + out_path);
  }
  for (const auto& [a, b] : pairs) {
    std::fprintf(out, "%u\t%u\n", a, b);
  }
  if (out != stdout && std::fclose(out) != 0) {
    return Status::IOError("error writing " + out_path);
  }
  return Status::OK();
}

void MaybePrintStats(bool enabled, const JoinStats& stats) {
  if (enabled) std::fprintf(stderr, "%s\n", stats.ToString().c_str());
}

// Loads --input as a SetCollection per --format.
Result<SetCollection> LoadInput(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(std::string input, flags.GetString("input", ""));
  if (input.empty()) return Status::InvalidArgument("--input is required");
  SSJOIN_ASSIGN_OR_RETURN(std::string format,
                          flags.GetString("format", "strings"));
  if (format == "sets") {
    return LoadSets(input);
  }
  if (format == "bin") {
    return LoadSetsBinary(input);
  }
  if (format == "strings") {
    SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> strings,
                            LoadStrings(input));
    WordTokenizer tokenizer;
    return tokenizer.TokenizeAll(strings);
  }
  return Status::InvalidArgument("--format must be strings, sets or bin");
}

// Reads --threads and the spill flags into JoinOptions (see kUsage).
Result<JoinOptions> ThreadedJoinOptions(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 1));
  if (threads < 0 || threads > static_cast<int64_t>(kMaxJoinThreads)) {
    return Status::InvalidArgument("--threads must be in [0, " +
                                   std::to_string(kMaxJoinThreads) + "]");
  }
  JoinOptions options;
  options.num_threads = static_cast<size_t>(threads);
  SSJOIN_ASSIGN_OR_RETURN(std::string spill, flags.GetString("spill", ""));
  if (spill == "off") {
    options.spill.policy = SpillPolicy::kDisabled;
  } else if (spill == "auto") {
    options.spill.policy = SpillPolicy::kAuto;
  } else if (spill == "force") {
    options.spill.policy = SpillPolicy::kForced;
  } else if (!spill.empty()) {
    return Status::InvalidArgument("--spill must be off, auto or force");
  }
  SSJOIN_ASSIGN_OR_RETURN(options.spill.dir,
                          flags.GetString("spill-dir", ""));
  SSJOIN_ASSIGN_OR_RETURN(int64_t spill_partitions,
                          flags.GetInt("spill-partitions", 0));
  if (spill_partitions < 0 || spill_partitions > kMaxSpillPartitions) {
    return Status::InvalidArgument("--spill-partitions must be in [0, " +
                                   std::to_string(kMaxSpillPartitions) + "]");
  }
  options.spill.partitions = static_cast<uint32_t>(spill_partitions);
  return options;
}

// Reads the guardrail flags (see kUsage) into an ExecutionBudget.
// `enabled` is false when every limit is off — no guard is attached then,
// keeping the default run on the zero-overhead path.
struct GuardFlags {
  ExecutionBudget budget;
  bool enabled = false;
};

Result<GuardFlags> ParseGuardFlags(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(int64_t deadline_ms,
                          flags.GetInt("deadline-ms", 0));
  SSJOIN_ASSIGN_OR_RETURN(int64_t budget_mb,
                          flags.GetInt("memory-budget-mb", 0));
  SSJOIN_ASSIGN_OR_RETURN(double ratio,
                          flags.GetDouble("max-candidate-ratio", 0));
  SSJOIN_ASSIGN_OR_RETURN(int64_t disk_mb,
                          flags.GetInt("disk-budget-mb", 0));
  if (deadline_ms < 0) {
    return Status::InvalidArgument("--deadline-ms must be >= 0");
  }
  // Larger megabyte counts would wrap the byte conversion (to 0 = off).
  constexpr uint64_t kMaxMb = std::numeric_limits<size_t>::max() >> 20;
  if (budget_mb < 0 || static_cast<uint64_t>(budget_mb) > kMaxMb) {
    return Status::InvalidArgument("--memory-budget-mb must be in [0, " +
                                   std::to_string(kMaxMb) + "]");
  }
  if (!(ratio >= 0)) {
    return Status::InvalidArgument("--max-candidate-ratio must be >= 0");
  }
  if (disk_mb < 0 || static_cast<uint64_t>(disk_mb) > kMaxMb) {
    return Status::InvalidArgument("--disk-budget-mb must be in [0, " +
                                   std::to_string(kMaxMb) + "]");
  }
  GuardFlags out;
  out.budget.deadline_ms = deadline_ms;
  out.budget.memory_budget_bytes =
      static_cast<size_t>(budget_mb) * 1024 * 1024;
  out.budget.max_candidate_ratio = ratio;
  out.budget.disk_budget_bytes = static_cast<size_t>(disk_mb) * 1024 * 1024;
  out.enabled = deadline_ms > 0 || budget_mb > 0 || ratio > 0 || disk_mb > 0;
  return out;
}

// Reads the observability flags (see kUsage). Sinks are created only when
// a flag asks for them, keeping the default run on the null-sink path.
struct ObsFlags {
  std::string trace_out;
  std::string metrics_out;
  std::string explain_out;
  std::string log_out;
  bool report = false;
  bool openmetrics = false;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  int64_t progress_interval_ms = 0;

  bool tracing() const { return !trace_out.empty() || report; }
  // The heartbeat snapshots the registry, so asking for progress also
  // turns metering on.
  bool metering() const {
    return !metrics_out.empty() || report || progressing();
  }
  bool explaining() const { return !explain_out.empty(); }
  // Progress records need a log stream; without --log-out they go to
  // stderr.
  bool logging() const { return !log_out.empty() || progressing(); }
  bool progressing() const { return progress_interval_ms > 0; }
};

Result<ObsFlags> ParseObsFlags(Flags& flags) {
  ObsFlags out;
  SSJOIN_ASSIGN_OR_RETURN(out.trace_out, flags.GetString("trace-out", ""));
  SSJOIN_ASSIGN_OR_RETURN(out.metrics_out,
                          flags.GetString("metrics-out", ""));
  SSJOIN_ASSIGN_OR_RETURN(out.explain_out,
                          flags.GetString("explain-out", ""));
  SSJOIN_ASSIGN_OR_RETURN(out.report, flags.GetBool("report", false));
  SSJOIN_ASSIGN_OR_RETURN(out.log_out, flags.GetString("log-out", ""));
  SSJOIN_ASSIGN_OR_RETURN(std::string level,
                          flags.GetString("log-level", "info"));
  if (!obs::ParseLogLevel(level, &out.log_level)) {
    return Status::InvalidArgument(
        "--log-level must be debug, info, warn or error");
  }
  SSJOIN_ASSIGN_OR_RETURN(out.progress_interval_ms,
                          flags.GetInt("progress-interval-ms", 0));
  if (out.progress_interval_ms < 0) {
    return Status::InvalidArgument("--progress-interval-ms must be >= 0");
  }
  SSJOIN_ASSIGN_OR_RETURN(std::string format,
                          flags.GetString("metrics-format", "jsonl"));
  if (format == "openmetrics") {
    out.openmetrics = true;
  } else if (format != "jsonl") {
    return Status::InvalidArgument(
        "--metrics-format must be jsonl or openmetrics");
  }
  return out;
}

// Builds the structured log sink requested by `obs_flags` (null when no
// logging was asked for). "-" and the progress-without---log-out default
// borrow stderr; any other path is opened for appending. When a metrics
// registry is live the logger publishes its log.lines.* accounting into
// it.
Result<std::unique_ptr<obs::Logger>> MakeLogger(
    const ObsFlags& obs_flags, obs::MetricsRegistry* metrics) {
  if (!obs_flags.logging()) return std::unique_ptr<obs::Logger>();
  obs::LoggerOptions options;
  options.min_level = obs_flags.log_level;
  std::unique_ptr<obs::Logger> logger;
  if (obs_flags.log_out.empty() || obs_flags.log_out == "-") {
    logger = std::make_unique<obs::Logger>(stderr, options);
  } else {
    SSJOIN_ASSIGN_OR_RETURN(logger,
                            obs::Logger::Open(obs_flags.log_out, options));
  }
  logger->BindMetrics(metrics);
  return logger;
}

#ifdef SIGUSR1
extern "C" void HandleProgressSignal(int) {
  obs::ProgressReporter::NotifySignalTarget();
}
#endif

// Arms the heartbeat for one join run: builds the reporter, installs it
// as the SIGUSR1 target, and starts the background thread. The reporter
// must be stopped (or destroyed) before the logger goes away.
void StartProgress(const ObsFlags& obs_flags, obs::Logger* logger,
                   obs::MetricsRegistry* metrics, const ExecutionGuard* guard,
                   std::optional<obs::ProgressReporter>& progress) {
  if (!obs_flags.progressing() || logger == nullptr) return;
  progress.emplace(logger, metrics, guard, obs_flags.progress_interval_ms);
  obs::ProgressReporter::InstallSignalTarget(&*progress);
#ifdef SIGUSR1
  (void)std::signal(SIGUSR1, HandleProgressSignal);
#endif
  progress->Start();
}

// Instantiates the sinks requested by `obs_flags` and attaches them to
// `tracer_slot` / `metrics_slot` (e.g. JoinOptions::tracer / ::metrics).
void AttachObsSinks(const ObsFlags& obs_flags,
                    std::optional<obs::Tracer>& tracer,
                    std::optional<obs::MetricsRegistry>& metrics,
                    obs::Tracer** tracer_slot,
                    obs::MetricsRegistry** metrics_slot) {
  if (obs_flags.tracing()) {
    tracer.emplace();
    *tracer_slot = &*tracer;
  }
  if (obs_flags.metering()) {
    metrics.emplace();
    *metrics_slot = &*metrics;
  }
}

// Writes the requested trace / metrics files and the stderr report. Called
// before the join's own status is checked so that tripped runs still leave
// their telemetry behind (the trip cause is a span event).
Status WriteObsOutputs(const ObsFlags& obs_flags,
                       const std::optional<obs::Tracer>& tracer,
                       const std::optional<obs::MetricsRegistry>& metrics,
                       const obs::ExplainReport* explain = nullptr) {
  if (!obs_flags.trace_out.empty()) {
    SSJOIN_RETURN_NOT_OK(obs::WriteTraceAuto(*tracer, obs_flags.trace_out));
  }
  if (!obs_flags.metrics_out.empty()) {
    if (obs_flags.openmetrics) {
      SSJOIN_RETURN_NOT_OK(
          obs::WriteOpenMetrics(*metrics, obs_flags.metrics_out));
    } else {
      SSJOIN_RETURN_NOT_OK(
          obs::WriteMetricsJsonl(*metrics, obs_flags.metrics_out));
    }
  }
  if (obs_flags.report) {
    std::fprintf(stderr, "%s",
                 obs::RunReportText(tracer ? &*tracer : nullptr,
                                    metrics ? &*metrics : nullptr)
                     .c_str());
  }
  // Pairs own stdout; the explain rendering joins the report on stderr.
  if (explain != nullptr) {
    SSJOIN_RETURN_NOT_OK(
        obs::WriteExplainJsonl(*explain, obs_flags.explain_out));
    if (obs_flags.report) {
      std::fprintf(stderr, "%s",
                   obs::ExplainText(*explain, metrics ? &*metrics : nullptr)
                       .c_str());
    }
  }
  return Status::OK();
}

Status RunGenerate(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(std::string kind,
                          flags.GetString("kind", "address"));
  SSJOIN_ASSIGN_OR_RETURN(int64_t n, flags.GetInt("n", 10000));
  SSJOIN_ASSIGN_OR_RETURN(std::string out, flags.GetString("out", ""));
  SSJOIN_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 7));
  SSJOIN_ASSIGN_OR_RETURN(double dup_fraction,
                          flags.GetDouble("dup-fraction", 0.1));
  SSJOIN_ASSIGN_OR_RETURN(int64_t typos, flags.GetInt("typos", 3));
  if (out.empty()) return Status::InvalidArgument("--out is required");
  SSJOIN_RETURN_NOT_OK(flags.CheckUnused());
  if (n < 0) return Status::InvalidArgument("--n must be >= 0");
  if (!(dup_fraction >= 0 && dup_fraction <= 1)) {
    return Status::InvalidArgument("--dup-fraction must be in [0, 1]");
  }
  if (typos < 1 || typos > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("--typos must be in [1, 2^32-1]");
  }

  if (kind == "address") {
    AddressOptions options;
    options.num_strings = static_cast<size_t>(n);
    options.duplicate_fraction = dup_fraction;
    options.max_typos = static_cast<uint32_t>(typos);
    options.seed = static_cast<uint64_t>(seed);
    return SaveStrings(out, GenerateAddressStrings(options));
  }
  if (kind == "dblp") {
    DblpOptions options;
    options.num_strings = static_cast<size_t>(n);
    options.duplicate_fraction = dup_fraction;
    options.max_typos = static_cast<uint32_t>(typos);
    options.seed = static_cast<uint64_t>(seed);
    return SaveStrings(out, GenerateDblpStrings(options));
  }
  if (kind == "sets") {
    UniformSetOptions options;
    options.num_sets = static_cast<size_t>(n);
    options.similar_fraction = dup_fraction;
    options.seed = static_cast<uint64_t>(seed);
    SetCollection sets = GenerateUniformSets(options);
    // .bin extension selects the fast binary format.
    if (out.size() > 4 && out.substr(out.size() - 4) == ".bin") {
      return SaveSetsBinary(out, sets);
    }
    return SaveSets(out, sets);
  }
  return Status::InvalidArgument("--kind must be address, dblp or sets");
}

Status RunStats(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(SetCollection input, LoadInput(flags));
  SSJOIN_RETURN_NOT_OK(flags.CheckUnused());
  std::printf("%s\n", ToString(ComputeStats(input)).c_str());
  return Status::OK();
}

// The guard, sinks, logger, heartbeat and explain report of one jaccard
// or weighted join. Members are declared in dependency order: the
// heartbeat reads the guard and metrics and writes to the logger, so it
// is destroyed before them.
struct JoinSession {
  std::optional<ExecutionGuard> guard;
  std::optional<obs::Tracer> tracer;
  std::optional<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Logger> logger;
  std::optional<obs::ProgressReporter> progress;
  std::optional<obs::ExplainReport> explain;
};

// Set-up shared by RunJaccard and RunWeighted: builds what the flags ask
// for in `session` and attaches it to `options`.
Status OpenJoinSession(const GuardFlags& guard_flags,
                       const ObsFlags& obs_flags, double gamma,
                       const std::string& algo, JoinOptions& options,
                       JoinSession& session) {
  if (guard_flags.enabled) {
    session.guard.emplace(guard_flags.budget);
    options.guard = &*session.guard;
  }
  AttachObsSinks(obs_flags, session.tracer, session.metrics,
                 &options.tracer, &options.metrics);
  SSJOIN_ASSIGN_OR_RETURN(session.logger,
                          MakeLogger(obs_flags, options.metrics));
  options.log = session.logger.get();
  StartProgress(obs_flags, session.logger.get(), options.metrics,
                options.guard, session.progress);
  if (obs_flags.explaining()) {
    session.explain.emplace();
    options.explain = &*session.explain;
    char gamma_buf[32];
    std::snprintf(gamma_buf, sizeof(gamma_buf), "%.6g", gamma);
    session.explain->SetParam("gamma", gamma_buf);
    session.explain->SetParam("algo", algo);
  }
  return Status::OK();
}

// Tear-down shared by RunJaccard and RunWeighted: the final heartbeat,
// --time stats and telemetry files (written even for a tripped run),
// then the join's status and its pairs.
Status CloseJoinSession(JoinSession& session, const ObsFlags& obs_flags,
                        bool time, const JoinResult& result,
                        const std::string& out) {
  if (session.progress) {
    // Final beat: even a join faster than one interval leaves a progress
    // record with the finished counters.
    session.progress->DumpNow();
    session.progress->Stop();
  }
  MaybePrintStats(time, result.stats);
  SSJOIN_RETURN_NOT_OK(
      WriteObsOutputs(obs_flags, session.tracer, session.metrics,
                      session.explain ? &*session.explain : nullptr));
  SSJOIN_RETURN_NOT_OK(result.status);
  return WritePairs(result.pairs, out);
}

Status RunJaccard(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(SetCollection input, LoadInput(flags));
  SSJOIN_ASSIGN_OR_RETURN(double gamma, flags.GetDouble("gamma", 0.9));
  SSJOIN_ASSIGN_OR_RETURN(std::string algo, flags.GetString("algo", "pen"));
  SSJOIN_ASSIGN_OR_RETURN(std::string out, flags.GetString("out", ""));
  SSJOIN_ASSIGN_OR_RETURN(double accuracy,
                          flags.GetDouble("accuracy", 0.95));
  SSJOIN_ASSIGN_OR_RETURN(bool time, flags.GetBool("time", false));
  SSJOIN_ASSIGN_OR_RETURN(JoinOptions options, ThreadedJoinOptions(flags));
  SSJOIN_ASSIGN_OR_RETURN(GuardFlags guard_flags, ParseGuardFlags(flags));
  SSJOIN_ASSIGN_OR_RETURN(ObsFlags obs_flags, ParseObsFlags(flags));
  SSJOIN_RETURN_NOT_OK(flags.CheckUnused());
  if (!(gamma > 0 && gamma <= 1)) {
    return Status::InvalidArgument("--gamma must be in (0, 1]");
  }
  if (!(accuracy > 0 && accuracy < 1)) {
    return Status::InvalidArgument("--accuracy must be in (0, 1)");
  }
  JoinSession session;
  SSJOIN_RETURN_NOT_OK(
      OpenJoinSession(guard_flags, obs_flags, gamma, algo, options, session));

  JaccardPredicate predicate(gamma);
  JoinResult result;
  if (algo == "pen") {
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = input.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    if (!scheme.ok()) return scheme.status();
    result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  } else if (algo == "pf") {
    auto pred = std::make_shared<JaccardPredicate>(gamma);
    auto scheme = PrefixFilterScheme::Create(pred, input);
    if (!scheme.ok()) return scheme.status();
    result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  } else if (algo == "lsh") {
    obs::AdvisorTrace advisor_trace;
    AdvisorOptions advisor;
    if (options.explain) advisor.trace = &advisor_trace;
    auto choice = ChooseLshParams(input, gamma, 1.0 - accuracy, 6, 0,
                                  advisor);
    LshParams params =
        choice.ok() ? choice->params
                    : LshParams::ForAccuracy(gamma, 1.0 - accuracy, 3);
    if (options.explain) {
      obs::AttachAdvisorTrace(options.explain, advisor_trace);
    }
    auto scheme = LshScheme::Create(params);
    if (!scheme.ok()) return scheme.status();
    if (options.log != nullptr) {
      obs::LogEvent(options.log, obs::LogLevel::kWarn, "approximate_algo",
                    {{"algo", algo}, {"recall", accuracy}});
    } else {
      std::fprintf(stderr,
                   "note: LSH is approximate (configured recall %.0f%%)\n",
                   accuracy * 100);
    }
    result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  } else if (algo == "probecount") {
    if (guard_flags.enabled) {
      return Status::InvalidArgument(
          "guardrail flags require a signature-based --algo");
    }
    result = ProbeCountSelfJoin(input, predicate);
  } else if (algo == "paircount") {
    if (guard_flags.enabled) {
      return Status::InvalidArgument(
          "guardrail flags require a signature-based --algo");
    }
    result = PairCountSelfJoin(input, predicate);
  } else {
    return Status::InvalidArgument("unknown --algo " + algo);
  }
  return CloseJoinSession(session, obs_flags, time, result, out);
}

Status RunEdit(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(std::string input, flags.GetString("input", ""));
  if (input.empty()) return Status::InvalidArgument("--input is required");
  SSJOIN_ASSIGN_OR_RETURN(int64_t k, flags.GetInt("k", 1));
  SSJOIN_ASSIGN_OR_RETURN(std::string algo, flags.GetString("algo", "pen"));
  SSJOIN_ASSIGN_OR_RETURN(int64_t q, flags.GetInt("q", 0));
  SSJOIN_ASSIGN_OR_RETURN(std::string out, flags.GetString("out", ""));
  SSJOIN_ASSIGN_OR_RETURN(bool time, flags.GetBool("time", false));
  SSJOIN_ASSIGN_OR_RETURN(ObsFlags obs_flags, ParseObsFlags(flags));
  SSJOIN_RETURN_NOT_OK(flags.CheckUnused());
  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  if (k < 0 || k > kMaxU32) {
    return Status::InvalidArgument("--k must be in [0, 2^32-1]");
  }
  if (q < 0 || q > kMaxU32) {
    return Status::InvalidArgument(
        "--q must be in [0, 2^32-1] (0 = the algorithm's default)");
  }

  if (obs_flags.explaining()) {
    return Status::InvalidArgument(
        "--explain-out applies to jaccard / weighted joins");
  }
  if (obs_flags.logging()) {
    return Status::InvalidArgument(
        "--log-out / --progress-interval-ms apply to jaccard / weighted "
        "joins");
  }
  SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> strings,
                          LoadStrings(input));
  StringJoinOptions options;
  std::optional<obs::Tracer> tracer;
  std::optional<obs::MetricsRegistry> metrics;
  AttachObsSinks(obs_flags, tracer, metrics, &options.tracer,
                 &options.metrics);
  options.edit_threshold = static_cast<uint32_t>(k);
  if (algo == "pen") {
    options.algorithm = StringJoinAlgorithm::kPartEnum;
    options.q = q > 0 ? static_cast<uint32_t>(q) : 1;
  } else if (algo == "pf") {
    options.algorithm = StringJoinAlgorithm::kPrefixFilter;
    options.q = q > 0 ? static_cast<uint32_t>(q) : 4;
  } else {
    return Status::InvalidArgument("unknown --algo " + algo);
  }
  SSJOIN_ASSIGN_OR_RETURN(JoinResult result,
                          StringSimilaritySelfJoin(strings, options));
  MaybePrintStats(time, result.stats);
  SSJOIN_RETURN_NOT_OK(WriteObsOutputs(obs_flags, tracer, metrics));
  return WritePairs(result.pairs, out);
}

Status RunWeighted(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(SetCollection input, LoadInput(flags));
  SSJOIN_ASSIGN_OR_RETURN(double gamma, flags.GetDouble("gamma", 0.9));
  SSJOIN_ASSIGN_OR_RETURN(std::string algo, flags.GetString("algo", "wen"));
  SSJOIN_ASSIGN_OR_RETURN(std::string out, flags.GetString("out", ""));
  SSJOIN_ASSIGN_OR_RETURN(double accuracy,
                          flags.GetDouble("accuracy", 0.95));
  SSJOIN_ASSIGN_OR_RETURN(bool time, flags.GetBool("time", false));
  SSJOIN_ASSIGN_OR_RETURN(JoinOptions options, ThreadedJoinOptions(flags));
  SSJOIN_ASSIGN_OR_RETURN(GuardFlags guard_flags, ParseGuardFlags(flags));
  SSJOIN_ASSIGN_OR_RETURN(ObsFlags obs_flags, ParseObsFlags(flags));
  SSJOIN_RETURN_NOT_OK(flags.CheckUnused());
  if (!(gamma > 0 && gamma <= 1)) {
    return Status::InvalidArgument("--gamma must be in (0, 1]");
  }
  if (!(accuracy > 0 && accuracy < 1)) {
    return Status::InvalidArgument("--accuracy must be in (0, 1)");
  }
  JoinSession session;
  SSJOIN_RETURN_NOT_OK(
      OpenJoinSession(guard_flags, obs_flags, gamma, algo, options, session));

  auto idf = std::make_shared<IdfWeights>(IdfWeights::Compute(input));
  WeightFunction weights = [idf](ElementId e) {
    return idf->Weight(e) + 0.01;
  };
  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < input.size(); ++id) {
    if (input.set_size(id) == 0) continue;
    min_ws = std::min(min_ws, WeightedSize(input.set(id), weights));
  }
  if (std::isinf(min_ws)) min_ws = 1.0;  // all sets empty

  WeightedJaccardPredicate predicate(gamma, weights);
  JoinResult result;
  if (algo == "wen") {
    WtEnumParams params;
    params.pruning_threshold = idf->DefaultPruningThreshold();
    auto scheme = WtEnumScheme::CreateJaccard(weights, weights, gamma,
                                              min_ws, params);
    if (!scheme.ok()) return scheme.status();
    result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  } else if (algo == "wpf") {
    auto scheme =
        WeightedPrefixFilterScheme::Create(gamma, weights, input, min_ws);
    if (!scheme.ok()) return scheme.status();
    result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  } else if (algo == "wlsh") {
    LshParams params = LshParams::ForAccuracy(gamma, 1.0 - accuracy, 3);
    auto scheme = WeightedLshScheme::Create(params, weights);
    if (!scheme.ok()) return scheme.status();
    if (options.log != nullptr) {
      obs::LogEvent(options.log, obs::LogLevel::kWarn, "approximate_algo",
                    {{"algo", algo}, {"recall", accuracy}});
    } else {
      std::fprintf(stderr,
                   "note: weighted LSH is approximate (configured recall "
                   "~%.0f%%)\n",
                   accuracy * 100);
    }
    result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  } else {
    return Status::InvalidArgument("unknown --algo " + algo);
  }
  return CloseJoinSession(session, obs_flags, time, result, out);
}

// The explain subcommand (see kUsage): tune, run, account. No pairs are
// written, so the human report owns stdout here.
Status RunExplain(Flags& flags) {
  SSJOIN_ASSIGN_OR_RETURN(SetCollection input, LoadInput(flags));
  SSJOIN_ASSIGN_OR_RETURN(double gamma, flags.GetDouble("gamma", 0.9));
  SSJOIN_ASSIGN_OR_RETURN(int64_t sample, flags.GetInt("sample", 2000));
  SSJOIN_ASSIGN_OR_RETURN(std::string explain_out,
                          flags.GetString("explain-out", ""));
  SSJOIN_ASSIGN_OR_RETURN(bool dbms, flags.GetBool("dbms", false));
  SSJOIN_ASSIGN_OR_RETURN(JoinOptions options, ThreadedJoinOptions(flags));
  SSJOIN_RETURN_NOT_OK(flags.CheckUnused());
  if (!(gamma > 0 && gamma <= 1)) {
    return Status::InvalidArgument("--gamma must be in (0, 1]");
  }
  if (sample <= 0) {
    return Status::InvalidArgument("--sample must be > 0");
  }

  // Advisor search at the equi-sized hamming threshold for the average
  // set size — the same tuning the benches and the explosion-retry path
  // use.
  uint32_t avg = static_cast<uint32_t>(input.average_set_size() + 0.5);
  uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(
      std::max(1u, avg), gamma);
  obs::AdvisorTrace trace;
  AdvisorOptions advisor;
  advisor.sample_size = static_cast<size_t>(sample);
  advisor.trace = &trace;
  SSJOIN_ASSIGN_OR_RETURN(PartEnumChoice choice,
                          ChoosePartEnumParams(input, k, input.size(),
                                               advisor));

  obs::ExplainReport report;
  obs::AttachAdvisorTrace(&report, trace);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", gamma);
  report.SetParam("gamma", buf);
  report.SetParam("algo", "pen");
  report.SetParam("k", std::to_string(k));
  report.SetParam("n1", std::to_string(choice.params.n1));
  report.SetParam("n2", std::to_string(choice.params.n2));

  PartEnumJaccardParams params;
  params.gamma = gamma;
  params.max_set_size = input.max_set_size();
  PartEnumParams tuned = choice.params;
  params.chooser = [tuned](uint32_t threshold) {
    PartEnumParams p = tuned;
    p.k = threshold;
    return p;
  };
  SSJOIN_ASSIGN_OR_RETURN(auto scheme,
                          PartEnumJaccardScheme::Create(params));

  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  options.explain = &report;
  JaccardPredicate predicate(gamma);
  JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));

  std::string jsonl = obs::ExplainJsonl(report);
  std::printf("%s", obs::ExplainText(report, &metrics).c_str());

  if (dbms && result.status.ok()) {
    SSJOIN_ASSIGN_OR_RETURN(relational::DbmsJoinResult dbms_result,
                            relational::DbmsSelfJoin(input, scheme,
                                                     predicate));
    std::printf("\n%s", dbms_result.explain.Text().c_str());
    jsonl += dbms_result.explain.Jsonl();
  }
  if (!explain_out.empty()) {
    SSJOIN_RETURN_NOT_OK(obs::WriteTextFile(explain_out, jsonl));
  }
  return result.status;
}

int Main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  Flags& flags = *parsed;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& command = flags.positional()[0];
  Status status;
  if (command == "generate") {
    status = RunGenerate(flags);
  } else if (command == "stats") {
    status = RunStats(flags);
  } else if (command == "jaccard") {
    status = RunJaccard(flags);
  } else if (command == "edit") {
    status = RunEdit(flags);
  } else if (command == "weighted") {
    status = RunWeighted(flags);
  } else if (command == "explain") {
    status = RunExplain(flags);
  } else if (command == "help" || command == "--help") {
    std::printf("%s", kUsage);
    return 0;
  } else {
    std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
                 kUsage);
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ssjoin::tools

int main(int argc, char** argv) { return ssjoin::tools::Main(argc, argv); }
