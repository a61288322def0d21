/**
 * @file
 * Lightweight statistics framework.
 *
 * A component declares its statistics as members: a Counter
 * accumulates an integer total, a Mean tracks sum/count, a Histogram
 * buckets samples for latency distributions, and a Value reads a
 * figure derived from the component's state at dump time. A stat
 * constructed with a StatGroup registers in it, in declaration order;
 * one constructed without stays unregistered until the component adds
 * it, which is how the counters of a feature that is off stay out of
 * every dump and checkpoint. Bumping a counter member costs what
 * bumping a plain integer member does.
 *
 * Each component's group joins its machine's StatRegistry when the
 * component is built, so a whole machine is dumped and checkpointed
 * by walking one list, with no component or counter named by hand.
 */

#ifndef HWDP_SIM_STATS_HH
#define HWDP_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace hwdp::sim {

class Serializer;
class StatGroup;

/** Common interface for dumpable statistics. */
class StatBase
{
  public:
    /** An unregistered stat; StatGroup::add() registers it later. */
    StatBase(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {
    }
    /** A stat registered in @p group. */
    StatBase(StatGroup &group, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Render the value portion of a dump line. */
    virtual std::string valueString() const = 0;

    /** Checkpoint the value state (never the name/description). */
    virtual void serialize(Serializer &s) = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A monotonically adjustable integral counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t n) { val += n; return *this; }

    std::uint64_t value() const { return val; }
    void set(std::uint64_t v) { val = v; }

    std::string valueString() const override;
    void serialize(Serializer &s) override;

  private:
    std::uint64_t val = 0;
};

/** Mean of samples with min/max tracking. */
class Mean : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        sum += v;
        ++n;
        if (v < mn)
            mn = v;
        if (v > mx)
            mx = v;
    }

    std::uint64_t count() const { return n; }
    double total() const { return sum; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double minValue() const { return n ? mn : 0.0; }
    double maxValue() const { return n ? mx : 0.0; }

    std::string valueString() const override;
    void serialize(Serializer &s) override;

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
    double mn = std::numeric_limits<double>::max();
    double mx = std::numeric_limits<double>::lowest();
};

/**
 * Fixed-width linear histogram with overflow bucket; also tracks the
 * exact mean so percentile reporting stays honest about resolution.
 */
class Histogram : public StatBase
{
  public:
    Histogram(std::string name, std::string desc, double bucket_width,
              std::size_t n_buckets);
    Histogram(StatGroup &group, std::string name, std::string desc,
              double bucket_width, std::size_t n_buckets);

    void sample(double v);

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Approximate quantile (e.g. 0.99) by bucket interpolation. */
    double quantile(double q) const;

    const std::vector<std::uint64_t> &buckets() const { return bins; }
    double bucketWidth() const { return width; }

    std::string valueString() const override;
    void serialize(Serializer &s) override;

  private:
    double width;
    std::vector<std::uint64_t> bins;
    std::uint64_t n = 0;
    double sum = 0.0;
};

/**
 * A figure derived from its component's checkpointed state (an
 * occupancy, say), read at dump time. It carries no state of its own:
 * a checkpoint only verifies on load that the restored component
 * derives the saved figure.
 */
class Value : public StatBase
{
  public:
    Value(StatGroup &group, std::string name, std::string desc,
          std::function<std::uint64_t()> read);

    std::string valueString() const override;
    void serialize(Serializer &s) override;

  private:
    std::function<std::uint64_t()> read;
};

class StatRegistry;

/** A named collection of statistics belonging to one component. */
class StatGroup
{
  public:
    /**
     * A group on @p reg's list; nullptr keeps it on none (a component
     * built outside a machine, or a test-side attachment whose stats
     * ride in its own blob).
     */
    explicit StatGroup(std::string name, StatRegistry *reg = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }
    const std::vector<StatBase *> &stats() const { return all; }

    /**
     * Register @p stat after the ones already here. Stats declared
     * with this group call it themselves; a feature wired after
     * construction registers its unregistered counters here.
     */
    void add(StatBase &stat) { all.push_back(&stat); }

    /** Find a stat by name; nullptr when absent. */
    StatBase *find(const std::string &name) const;

    void dump(std::ostream &os) const;

    /**
     * Checkpoint every registered stat in registration order. The
     * group's name tag, its stat count and each stat's name tag are
     * verified on load, so a component that gains or loses stats
     * invalidates old blobs loudly instead of shifting the stream.
     */
    void serialize(Serializer &s);

  private:
    friend class StatRegistry;

    std::string _name;
    StatRegistry *reg;
    std::vector<StatBase *> all;
};

/**
 * The stat groups of one machine, in the order their components were
 * built. Groups join when constructed and leave when destroyed, so
 * the list never names a component: the machine dump
 * (testing::dumpMachineStats) and the checkpoint's stats section both
 * walk it.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    ~StatRegistry();

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    const std::vector<StatGroup *> &groups() const { return all; }

    /**
     * Checkpoint every group in list order. The group count is
     * verified on load; each group verifies its own layout.
     */
    void serialize(Serializer &s);

  private:
    friend class StatGroup;

    std::vector<StatGroup *> all;
};

} // namespace hwdp::sim

#endif // HWDP_SIM_STATS_HH
