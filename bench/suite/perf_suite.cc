/**
 * @file
 * perf_suite: the canonical host-performance benchmark.
 *
 * One command runs five fixed workloads (round.hh), checks that every
 * output is correct, and prints each end-to-end and per-layer metric by
 * name with its unit; --out writes the same as JSON. Every (workload,
 * round) runs in a fresh child process — the suite re-executes itself
 * with --one=<workload> — one child at a time, so rounds share no heap,
 * allocator state or peak RSS. Workload order rotates each round so
 * slow drift on the host lands on every workload.
 *
 * Usage: perf_suite [--workloads=a,b] [--rounds=N] [--seconds=T]
 *                   [--seed=S] [--smoke] [--trace=PATH] [--out=PATH]
 *                   [--vs-seed=S]
 *
 *   --rounds=N   rounds per workload (default 3)
 *   --seconds=T  keep starting rounds until T s of wall time have
 *                passed (at least --rounds of them)
 *   --smoke      every workload at 1/50 of its ops, one round
 *   --trace=PATH one more traced round per workload, written as Chrome
 *                Trace Event JSON; reports the tracing overhead
 *   --vs-seed=S  one more round per workload at seed S, whose digests
 *                must all differ (shows the seed reaches the inputs)
 *
 * Exit status: 0 when every check passed, 1 when one failed, 2 on a
 * usage error.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/host_timing.hh"
#include "bench/suite/probe.hh"
#include "bench/suite/round.hh"
#include "metrics/report.hh"

extern char **environ;

using namespace hwdp;
using suite::Metric;
using suite::RoundResult;

namespace {

constexpr unsigned smokeScaleDiv = 50;

/** The paper's Fig. 13 FIO throughput-gain band, percent. */
constexpr double paperFioGainLo = 29.4;
constexpr double paperFioGainHi = 57.1;

const char *const e2eNames[] = {"host_us_per_op", "host_us_per_fault",
                                "setup_s", "peak_rss_mb",
                                "ops_failed_frac"};

struct Options
{
    std::vector<std::string> workloads = suite::workloadNames;
    unsigned rounds = 3;
    double seconds = 0;
    std::uint64_t seed = 42;
    bool smoke = false;
    std::string tracePath;
    std::string outPath;
    bool vsSeedSet = false;
    std::uint64_t vsSeed = 0;
    // Child side.
    std::string one;
    bool traced = false;
    bool skipInvariants = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perf_suite: %s\n"
                 "usage: perf_suite [--workloads=a,b] [--rounds=N] "
                 "[--seconds=T] [--seed=S] [--smoke] [--trace=PATH] "
                 "[--out=PATH] [--vs-seed=S]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE)
        usage("bad value for " + flag + ": '" + v + "'");
    return n;
}

bool
isWorkload(const std::string &w)
{
    const auto &all = suite::workloadNames;
    return std::find(all.begin(), all.end(), w) != all.end();
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto eq = a.find('=');
        std::string key = a.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
        if (key == "--workloads") {
            o.workloads.clear();
            std::stringstream ss(val);
            for (std::string w; std::getline(ss, w, ',');) {
                if (!isWorkload(w))
                    usage("unknown workload '" + w + "'");
                if (std::find(o.workloads.begin(), o.workloads.end(), w) !=
                    o.workloads.end())
                    usage("workload '" + w + "' named twice");
                o.workloads.push_back(w);
            }
            if (o.workloads.empty())
                usage("--workloads needs at least one name");
        } else if (key == "--rounds") {
            o.rounds = unsigned(std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(parseUint(key, val), 1000)));
        } else if (key == "--seconds") {
            o.seconds = double(std::min<std::uint64_t>(
                parseUint(key, val), 24 * 3600));
        } else if (key == "--seed") {
            o.seed = parseUint(key, val);
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (key == "--trace" && !val.empty()) {
            o.tracePath = val;
        } else if (key == "--out" && !val.empty()) {
            o.outPath = val;
        } else if (key == "--vs-seed") {
            o.vsSeed = parseUint(key, val);
            o.vsSeedSet = true;
        } else if (key == "--one") {
            if (!isWorkload(val))
                usage("unknown workload '" + val + "'");
            o.one = val;
        } else if (a == "--traced") {
            o.traced = true;
        } else if (a == "--skip-invariants") {
            o.skipInvariants = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (o.smoke)
        o.rounds = 1;
    return o;
}

// ---- Child: one round, reported as tab-separated lines ---------------------

/** @p s with tabs and newlines blanked, so it fits one protocol field. */
std::string
field(std::string s)
{
    std::replace_if(s.begin(), s.end(),
                    [](char c) { return c == '\t' || c == '\n'; }, ' ');
    return s;
}

int
childMain(const Options &o)
{
    suite::RoundOptions ro;
    ro.workload = o.one;
    ro.seed = o.seed;
    ro.scaleDiv = o.smoke ? smokeScaleDiv : 1;
    ro.traced = o.traced;
    ro.checkInvariants = !o.skipInvariants;
    RoundResult r;
    try {
        r = suite::runRound(ro);
    } catch (const std::exception &e) {
        std::printf("fail\t%s: %s\n", o.one.c_str(), field(e.what()).c_str());
        return 1;
    }
    for (const Metric &m : r.metrics)
        std::printf("metric\t%s\t%s\t%.17g\t%s\t%" PRIu64 "\n",
                    m.name.c_str(), m.unit.c_str(), m.value,
                    m.baseOf.c_str(), m.baseCount);
    for (const suite::Span &s : r.spans)
        std::printf("span\t%s\t%d\t%.3f\t%.3f\t%s\n", s.name.c_str(),
                    s.parent, s.startUs, s.endUs, s.args.c_str());
    for (const std::string &f : r.failures)
        std::printf("fail\t%s\n", field(f).c_str());
    std::printf("ops\t%" PRIu64 "\t%" PRIu64 "\n", r.requestedOps,
                r.completedOps);
    std::printf("digest\t%016" PRIx64 "\n", r.digest);
    return 0;
}

// ---- Parent: spawn rounds, aggregate, check, report -------------------------

using Clock = std::chrono::steady_clock;

struct Round
{
    RoundResult r;
    /** Child start, microseconds after the suite started. */
    double startUs = 0;
};

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> f;
    std::size_t pos = 0;
    for (;;) {
        std::size_t tab = line.find('\t', pos);
        f.push_back(line.substr(pos, tab - pos));
        if (tab == std::string::npos)
            return f;
        pos = tab + 1;
    }
}

void
parseChild(const std::string &out, RoundResult &r)
{
    std::istringstream is(out);
    for (std::string line; std::getline(is, line);) {
        std::vector<std::string> f = splitTabs(line);
        if (f[0] == "metric" && f.size() == 6) {
            r.metrics.push_back({f[1], f[2], std::strtod(f[3].c_str(), nullptr),
                                 f[4], std::strtoull(f[5].c_str(), nullptr, 10)});
        } else if (f[0] == "span" && f.size() == 6) {
            r.spans.push_back({f[1], std::atoi(f[2].c_str()),
                               std::strtod(f[3].c_str(), nullptr),
                               std::strtod(f[4].c_str(), nullptr), f[5]});
        } else if (f[0] == "fail" && f.size() >= 2) {
            r.failures.push_back(f[1]);
        } else if (f[0] == "ops" && f.size() == 3) {
            r.requestedOps = std::strtoull(f[1].c_str(), nullptr, 10);
            r.completedOps = std::strtoull(f[2].c_str(), nullptr, 10);
        } else if (f[0] == "digest" && f.size() == 2) {
            r.digest = std::strtoull(f[1].c_str(), nullptr, 16);
        }
    }
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return buf;
}

enum class Kind { audited, plain, traced };

/**
 * Run one round of @p workload in a fresh child and wait for it. Only
 * audited and traced rounds run testing::checkInvariants.
 */
Round
spawnRound(const Options &o, const std::string &workload,
           std::uint64_t seed, Kind kind, Clock::time_point suite_t0)
{
    Round rd;
    rd.startUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           suite_t0)
                     .count();
    const std::string exe = selfExe();
    std::vector<std::string> args = {exe, "--one=" + workload,
                                     "--seed=" + std::to_string(seed)};
    if (o.smoke)
        args.push_back("--smoke");
    if (kind == Kind::traced)
        args.push_back("--traced");
    if (kind == Kind::plain)
        args.push_back("--skip-invariants");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (exe.empty() || pipe(fds) != 0) {
        rd.r.failures.push_back(workload + ": cannot start a round");
        return rd;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    pid_t pid = 0;
    int err = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (err != 0) {
        close(fds[0]);
        rd.r.failures.push_back(workload + ": cannot start a round: " +
                                std::strerror(err));
        return rd;
    }

    std::string out;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, std::size_t(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);

    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    parseChild(out, rd.r);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        rd.r.failures.push_back(workload + ": round process exited with "
                                "status " + std::to_string(status));
    return rd;
}

const Metric *
findMetric(const RoundResult &r, const std::string &name)
{
    for (const Metric &m : r.metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

/** One value per round that has the metric; NaN = not measured. */
std::vector<double>
samplesOf(const std::vector<Round> &rounds, const std::string &name)
{
    std::vector<double> v;
    for (const Round &rd : rounds)
        if (const Metric *m = findMetric(rd.r, name))
            v.push_back(m->value);
    return v;
}

struct Summary
{
    double median = NAN, min = NAN, max = NAN;
};

/** Median and range of the measured (finite) samples. */
Summary
summarize(const std::vector<double> &v)
{
    std::vector<double> f;
    std::copy_if(v.begin(), v.end(), std::back_inserter(f),
                 [](double x) { return std::isfinite(x); });
    if (f.empty())
        return {};
    auto [lo, hi] = std::minmax_element(f.begin(), f.end());
    return {bench::median(f), *lo, *hi};
}

/** Metric names in first-seen order across the rounds. */
std::vector<const Metric *>
metricOrder(const std::vector<Round> &rounds)
{
    std::vector<const Metric *> order;
    for (const Round &rd : rounds)
        for (const Metric &m : rd.r.metrics)
            if (std::none_of(order.begin(), order.end(),
                             [&](const Metric *x) { return x->name == m.name; }))
                order.push_back(&m);
    return order;
}

struct WorkloadRuns
{
    std::vector<Round> rounds;
    Round traced;
    bool hasTraced = false;
    std::uint64_t digest = 0;
};

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Short human rendering of one value. */
std::string
show(const Metric &m, double v)
{
    char buf[48];
    if (!std::isfinite(v))
        return "n/a";
    if (m.unit == "count")
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

bool
isE2e(const std::string &name)
{
    return std::any_of(std::begin(e2eNames), std::end(e2eNames),
                       [&](const char *e) { return name == e; });
}

/**
 * One table cell: the median, then the range (end-to-end rows) or the
 * base of a ratio or percentile (per-layer rows).
 */
std::string
cell(const WorkloadRuns &wr, const std::string &name, bool range)
{
    const Metric *m =
        wr.rounds.empty() ? nullptr : findMetric(wr.rounds[0].r, name);
    if (!m)
        return "-";
    Summary s = summarize(samplesOf(wr.rounds, name));
    std::string c = show(*m, s.median);
    if (range && std::isfinite(s.median))
        c += " [" + show(*m, s.min) + ", " + show(*m, s.max) + "]";
    if (!range && !m->baseOf.empty())
        c += " (of " + std::to_string(m->baseCount) + " " + m->baseOf + ")";
    return c;
}

void
printReport(const Options &o, const std::map<std::string, WorkloadRuns> &runs)
{
    const WorkloadRuns &first = runs.at(o.workloads.front());
    std::vector<std::string> hdr = {"metric", "unit"};
    for (const std::string &w : o.workloads)
        hdr.push_back(w);
    metrics::Table e2e(hdr), layers(hdr);
    for (const Metric *m : metricOrder(first.rounds)) {
        bool is_e2e = isE2e(m->name);
        std::vector<std::string> row = {m->name, m->unit};
        for (const std::string &w : o.workloads)
            row.push_back(cell(runs.at(w), m->name, is_e2e));
        (is_e2e ? e2e : layers).addRow(row);
    }
    std::vector<std::string> drow = {"sim_digest", "hex"};
    for (const std::string &w : o.workloads)
        drow.push_back(hex(runs.at(w).digest));
    layers.addRow(drow);

    char note[160];
    std::snprintf(note, sizeof(note),
                  "median [min, max] over the rounds; lower is better; "
                  "host CPU times are divided by each round's "
                  "host.slowdown^%g",
                  suite::HostProbe::sensitivity);
    metrics::banner("end to end", note);
    e2e.print();
    metrics::banner("per layer", "median over the rounds; counts are "
                                 "measured-phase deltas; (of N x) = base; "
                                 "n/a = not measured");
    layers.print();
}

void
writeJsonMetric(std::ostream &os, const Metric &m, const std::vector<double> &v)
{
    Summary s = summarize(v);
    os << "\"" << jsonEscape(m.name) << "\": {\"unit\": \"" << m.unit
       << "\", \"median\": " << num(s.median)
       << ", \"min\": " << num(s.min) << ", \"max\": " << num(s.max)
       << ", \"n\": " << v.size() << ", \"samples\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << num(v[i]);
    os << "]";
    if (!m.baseOf.empty())
        os << ", \"base\": {\"of\": \"" << jsonEscape(m.baseOf)
           << "\", \"count\": " << m.baseCount << "}";
    os << "}";
}

bool
writeJson(const Options &o, const std::map<std::string, WorkloadRuns> &runs,
          const std::map<std::string, double> &suite_metrics,
          const std::vector<std::string> &failures, double wall_s)
{
    std::ofstream os(o.outPath);
    if (!os)
        return false;
    os << "{\n  \"suite\": \"perf_suite\",\n  \"schema\": 1,\n"
       << "  \"seed\": " << o.seed << ",\n"
       << "  \"smoke\": " << (o.smoke ? "true" : "false") << ",\n"
       << "  \"host\": {\"cpu\": \"" << jsonEscape(cpuModel())
       << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "},\n"
       << "  \"wall_s\": " << num(wall_s) << ",\n"
       << "  \"ok\": " << (failures.empty() ? "true" : "false") << ",\n"
       << "  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(failures[i]) << "\"";
    os << "],\n  \"suite_metrics\": {";
    bool first = true;
    for (const auto &[name, v] : suite_metrics) {
        os << (first ? "" : ", ") << "\"" << name << "\": " << num(v);
        first = false;
    }
    os << "},\n  \"workloads\": {";
    first = true;
    for (const std::string &w : o.workloads) {
        const WorkloadRuns &wr = runs.at(w);
        std::uint64_t req = 0, done = 0;
        for (const Round &rd : wr.rounds) {
            req += rd.r.requestedOps;
            done += rd.r.completedOps;
        }
        os << (first ? "" : ",") << "\n    \"" << w << "\": {\n"
           << "      \"rounds\": " << wr.rounds.size() << ",\n"
           << "      \"requested_ops\": " << req << ",\n"
           << "      \"completed_ops\": " << done << ",\n"
           << "      \"sim_digest\": \"" << hex(wr.digest) << "\",\n"
           << "      \"metrics\": {";
        first = false;
        bool mfirst = true;
        for (const Metric *m : metricOrder(wr.rounds)) {
            os << (mfirst ? "\n        " : ",\n        ");
            writeJsonMetric(os, *m, samplesOf(wr.rounds, m->name));
            mfirst = false;
        }
        if (wr.hasTraced) {
            for (const Metric &m : wr.traced.r.metrics) {
                if (m.name.rfind("trace.", 0) == 0) {
                    os << ",\n        ";
                    writeJsonMetric(os, m, {m.value});
                }
            }
        }
        os << "\n      }\n    }";
    }
    os << "\n  }\n}\n";
    return bool(os);
}

/** Chrome Trace Event JSON: one thread (tid) per workload. */
bool
writeTrace(const Options &o, const std::map<std::string, WorkloadRuns> &runs)
{
    std::ofstream os(o.tracePath);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (std::size_t wi = 0; wi < o.workloads.size(); ++wi) {
        const std::string &w = o.workloads[wi];
        const Round &rd = runs.at(w).traced;
        os << (first ? "\n" : ",\n")
           << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": "
           << wi + 1 << ", \"args\": {\"name\": \"" << w << "\"}}";
        first = false;
        const auto &spans = rd.r.spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const suite::Span &s = spans[i];
            os << ",\n{\"name\": \"" << jsonEscape(s.name)
               << "\", \"cat\": \"" << w << "\", \"ph\": \"X\", \"pid\": 1, "
               << "\"tid\": " << wi + 1 << ", \"ts\": "
               << num(rd.startUs + s.startUs)
               << ", \"dur\": " << num(s.endUs - s.startUs)
               << ", \"args\": {\"id\": " << i << ", \"parent\": ";
            if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
                os << s.parent << ", \"parent_name\": \""
                   << jsonEscape(spans[std::size_t(s.parent)].name) << "\"";
            else
                os << "null";
            if (!s.args.empty())
                os << ", " << s.args;
            os << "}}";
        }
    }
    os << "\n]}\n";
    return bool(os);
}

int
parentMain(const Options &o)
{
    const Clock::time_point t0 = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    std::map<std::string, WorkloadRuns> runs;
    std::vector<std::string> failures;
    for (const std::string &w : o.workloads)
        runs[w];

    for (unsigned r = 0; r < o.rounds || elapsed() < o.seconds; ++r) {
        for (std::size_t i = 0; i < o.workloads.size(); ++i) {
            const std::string &w =
                o.workloads[(i + r) % o.workloads.size()];
            runs[w].rounds.push_back(spawnRound(
                o, w, o.seed, r == 0 ? Kind::audited : Kind::plain, t0));
        }
    }

    for (const std::string &w : o.workloads) {
        WorkloadRuns &wr = runs[w];
        for (const Round &rd : wr.rounds)
            failures.insert(failures.end(), rd.r.failures.begin(),
                            rd.r.failures.end());
        wr.digest = wr.rounds.front().r.digest;
        for (const Round &rd : wr.rounds)
            if (rd.r.digest != wr.digest)
                failures.push_back(w + ": rounds disagree on sim_digest");
    }

    if (!o.tracePath.empty()) {
        for (const std::string &w : o.workloads) {
            WorkloadRuns &wr = runs[w];
            wr.traced = spawnRound(o, w, o.seed, Kind::traced, t0);
            wr.hasTraced = true;
            RoundResult &tr = wr.traced.r;
            failures.insert(failures.end(), tr.failures.begin(),
                            tr.failures.end());
            if (tr.digest != wr.digest)
                failures.push_back(w + ": traced run's sim_digest differs "
                                       "from the untraced one");
            const Metric *tm = findMetric(tr, "phase.measure_s");
            double base =
                summarize(samplesOf(wr.rounds, "phase.measure_s")).median;
            if (tm && base > 0) {
                double traced_s = tm->value;
                tr.metrics.push_back({"trace.measure_s", "s", traced_s, {}, 0});
                tr.metrics.push_back(
                    {"trace.overhead_s", "s", traced_s - base, {}, 0});
                tr.metrics.push_back({"trace.overhead_pct", "pct",
                                      100.0 * (traced_s - base) / base,
                                      {}, 0});
            }
        }
        if (!writeTrace(o, runs))
            failures.push_back("cannot write " + o.tracePath);
    }

    if (o.vsSeedSet) {
        for (const std::string &w : o.workloads) {
            Round other = spawnRound(o, w, o.vsSeed, Kind::audited, t0);
            failures.insert(failures.end(), other.r.failures.begin(),
                            other.r.failures.end());
            if (other.r.digest == runs[w].digest)
                failures.push_back(w + ": seed " + std::to_string(o.vsSeed) +
                                   " gives the same sim_digest as seed " +
                                   std::to_string(o.seed));
        }
    }

    std::map<std::string, double> suite_metrics;
    if (runs.count("fio_hwdp") && runs.count("fio_osdp")) {
        double h = summarize(samplesOf(runs["fio_hwdp"].rounds,
                                       "model.sim_ops_per_s")).median;
        double s = summarize(samplesOf(runs["fio_osdp"].rounds,
                                       "model.sim_ops_per_s")).median;
        if (s > 0) {
            double gain = 100.0 * (h / s - 1.0);
            suite_metrics["model.fio_gain_pct"] = gain;
            suite_metrics["model.fio_gain_err_pp"] =
                gain < paperFioGainLo   ? paperFioGainLo - gain
                : gain > paperFioGainHi ? gain - paperFioGainHi
                                        : 0.0;
        }
    }

    const double wall_s = elapsed();
    std::printf("perf_suite: seed %" PRIu64 ", %zu round(s) of %zu "
                "workload(s)%s, %.1f s wall\n",
                o.seed, runs[o.workloads.front()].rounds.size(),
                o.workloads.size(), o.smoke ? " (smoke scale)" : "", wall_s);
    printReport(o, runs);
    for (const auto &[name, v] : suite_metrics)
        std::printf("%s: %.3f\n", name.c_str(), v);
    if (!o.tracePath.empty()) {
        std::printf("\ntracing overhead (traced phase.measure_s minus the "
                    "untraced median):\n");
        for (const std::string &w : o.workloads) {
            const Metric *m = findMetric(runs[w].traced.r, "trace.overhead_pct");
            const Metric *s = findMetric(runs[w].traced.r, "trace.overhead_s");
            if (m && s)
                std::printf("  %-12s %+.4f s (%+.2f%%)\n", w.c_str(),
                            s->value, m->value);
        }
        std::printf("trace written to %s\n", o.tracePath.c_str());
    }
    if (!o.outPath.empty() &&
        !writeJson(o, runs, suite_metrics, failures, wall_s))
        failures.push_back("cannot write " + o.outPath);

    if (failures.empty()) {
        std::printf("\nchecks: all passed\n");
        return 0;
    }
    std::printf("\nchecks: %zu FAILED\n", failures.size());
    for (const std::string &f : failures)
        std::printf("  %s\n", f.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    return o.one.empty() ? parentMain(o) : childMain(o);
}
