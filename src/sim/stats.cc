#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace hwdp::sim {

void
Counter::serialize(Serializer &s)
{
    s.io(val);
}

void
Mean::serialize(Serializer &s)
{
    s.io(sum);
    s.io(n);
    s.io(mn);
    s.io(mx);
}

void
Histogram::serialize(Serializer &s)
{
    // Geometry is fixed at construction: verify, never resize.
    s.check(width, "histogram bucket width");
    std::uint64_t nb = bins.size();
    s.check(nb, "histogram bucket count");
    s.ioRange(bins.begin(), bins.end());
    s.io(n);
    s.io(sum);
}

void
Value::serialize(Serializer &s)
{
    std::uint64_t v = read();
    s.check(v, name().c_str());
}

void
StatGroup::serialize(Serializer &s)
{
    std::uint64_t gtag = Serializer::hashName(_name.c_str());
    std::uint64_t gstored = gtag;
    s.io(gstored);
    if (s.loading() && gstored != gtag)
        throw SerializeError("stat group '" + _name +
                             "' does not match the blob's group here");
    std::uint64_t count = all.size();
    s.check(count, "stat count");
    for (StatBase *st : all) {
        std::uint64_t tag = Serializer::hashName(st->name().c_str());
        std::uint64_t stored = tag;
        s.io(stored);
        if (s.loading() && stored != tag)
            throw SerializeError("stat group '" + _name +
                                 "' layout changed: blob stat does not "
                                 "match '" + st->name() + "'");
        st->serialize(s);
    }
}

std::string
Counter::valueString() const
{
    return std::to_string(val);
}

std::string
Mean::valueString() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << mean() << " (n=" << n
       << ", min=" << minValue() << ", max=" << maxValue() << ")";
    return os.str();
}

StatBase::StatBase(StatGroup &group, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    group.add(*this);
}

Histogram::Histogram(std::string name, std::string desc, double bucket_width,
                     std::size_t n_buckets)
    : StatBase(std::move(name), std::move(desc)), width(bucket_width),
      bins(n_buckets + 1, 0)
{
    if (bucket_width <= 0.0 || n_buckets == 0)
        panic("histogram '", this->name(), "' has degenerate geometry");
}

Histogram::Histogram(StatGroup &group, std::string name, std::string desc,
                     double bucket_width, std::size_t n_buckets)
    : Histogram(std::move(name), std::move(desc), bucket_width, n_buckets)
{
    group.add(*this);
}

void
Histogram::sample(double v)
{
    ++n;
    sum += v;
    auto idx = static_cast<std::size_t>(std::max(v, 0.0) / width);
    if (idx >= bins.size())
        idx = bins.size() - 1; // overflow bucket
    ++bins[idx];
}

double
Histogram::quantile(double q) const
{
    if (n == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        seen += bins[i];
        if (seen >= target) {
            // Midpoint of the bucket keeps the estimate unbiased.
            return (static_cast<double>(i) + 0.5) * width;
        }
    }
    return static_cast<double>(bins.size()) * width;
}

std::string
Histogram::valueString() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << "mean=" << mean()
       << " p50=" << quantile(0.5) << " p99=" << quantile(0.99)
       << " (n=" << n << ")";
    return os.str();
}

Value::Value(StatGroup &group, std::string name, std::string desc,
             std::function<std::uint64_t()> read)
    : StatBase(group, std::move(name), std::move(desc)),
      read(std::move(read))
{
}

std::string
Value::valueString() const
{
    return std::to_string(read());
}

StatGroup::StatGroup(std::string name, StatRegistry *reg)
    : _name(std::move(name)), reg(reg)
{
    if (reg)
        reg->all.push_back(this);
}

StatGroup::~StatGroup()
{
    if (reg)
        reg->all.erase(std::find(reg->all.begin(), reg->all.end(), this));
}

StatBase *
StatGroup::find(const std::string &name) const
{
    for (StatBase *s : all) {
        if (s->name() == name)
            return s;
    }
    return nullptr;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const StatBase *s : all) {
        os << _name << '.' << s->name() << " = " << s->valueString()
           << "  # " << s->desc() << '\n';
    }
}

StatRegistry::~StatRegistry()
{
    // A group destroyed after its machine's queue must not erase
    // itself from this list.
    for (StatGroup *g : all)
        g->reg = nullptr;
}

void
StatRegistry::serialize(Serializer &s)
{
    std::uint64_t n = all.size();
    s.check(n, "stat group count");
    for (StatGroup *g : all)
        g->serialize(s);
}

} // namespace hwdp::sim
