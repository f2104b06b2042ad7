#include "common/stats.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace sst
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    // JSON has no inf/nan literals; formulas with a zero denominator
    // must still produce a parseable document.
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
Scalar::toJson() const
{
    return std::to_string(value_);
}

std::string
Distribution::toJson() const
{
    std::string out = "{\"count\":" + std::to_string(count_)
                      + ",\"sum\":" + std::to_string(sum_)
                      + ",\"mean\":" + jsonNumber(mean())
                      + ",\"max\":" + std::to_string(maxSample_)
                      + ",\"bucket_width\":" + std::to_string(width_)
                      + ",\"buckets\":[";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(buckets_[i]);
    }
    out += "],\"overflow\":" + std::to_string(overflow_) + "}";
    return out;
}

void
Distribution::init(std::uint64_t max, unsigned buckets)
{
    panic_if(buckets == 0, "Distribution needs at least one bucket");
    buckets_.assign(buckets, 0);
    // Ceiling division: truncation would leave the top of [0, max)
    // spilling into overflow (e.g. max=100, buckets=8 covered only
    // [0, 96) with width 12).
    width_ = (max + buckets - 1) / buckets;
    if (width_ == 0)
        width_ = 1;
    limit_ = width_ * buckets;
    magic_ = 0;
    shift_ = 64; // divide
    if (std::has_single_bit(width_)) {
        shift_ = static_cast<unsigned>(std::countr_zero(width_));
    } else if (limit_ <= (std::uint64_t{1} << 32)) {
        // floor(v / w) == (M * v) >> 64 with M = floor((2^64 - 1) / w)
        // + 1 for every v, w < 2^32 (Lemire, Kaser and Kurz, "Faster
        // remainder by direct computation", 2019).
        magic_ = ~std::uint64_t{0} / width_ + 1;
    }
}

void
Distribution::sample(std::uint64_t v, std::uint64_t n)
{
    if (n == 0)
        return;
    count_ += n;
    sum_ += v * n;
    if (v > maxSample_)
        maxSample_ = v;
    if (v >= limit_)
        overflow_ += n;
    else
        buckets_[bucketOf(v)] += n;
}

double
Distribution::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

void
Distribution::reset()
{
    for (auto &b : buckets_)
        b = 0;
    count_ = sum_ = overflow_ = maxSample_ = 0;
}

StatGroup::~StatGroup()
{
    for (auto *s : scalars_)
        delete s;
    for (auto *d : dists_)
        delete d;
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    auto *entry = new NamedScalar{name, desc, Scalar{}};
    scalars_.push_back(entry);
    return entry->stat;
}

Distribution &
StatGroup::addDist(const std::string &name, const std::string &desc,
                   std::uint64_t max, unsigned buckets)
{
    auto *entry = new NamedDist{name, desc, Distribution{}};
    entry->stat.init(max, buckets);
    dists_.push_back(entry);
    return entry->stat;
}

void
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      std::function<double()> fn)
{
    formulas_.push_back(NamedFormula{name, desc, std::move(fn)});
}

void
StatGroup::addChild(StatGroup &child)
{
    // Idempotent: re-attaching (e.g. a CorePort shared by successive
    // sampled cores) must not duplicate the subtree.
    for (const auto *c : children_)
        if (c == &child)
            return;
    children_.push_back(&child);
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ : prefix + "." + name_;
    std::string out;
    char buf[256];
    for (const auto *s : scalars_) {
        std::snprintf(buf, sizeof(buf), "%-48s %14llu  # %s\n",
                      (full + "." + s->name).c_str(),
                      static_cast<unsigned long long>(s->stat.value()),
                      s->desc.c_str());
        out += buf;
    }
    for (const auto &f : formulas_) {
        std::snprintf(buf, sizeof(buf), "%-48s %14.4f  # %s\n",
                      (full + "." + f.name).c_str(), f.fn(),
                      f.desc.c_str());
        out += buf;
    }
    for (const auto *d : dists_) {
        std::snprintf(buf, sizeof(buf),
                      "%-48s mean=%.2f max=%llu n=%llu  # %s\n",
                      (full + "." + d->name).c_str(), d->stat.mean(),
                      static_cast<unsigned long long>(d->stat.maxSample()),
                      static_cast<unsigned long long>(d->stat.count()),
                      d->desc.c_str());
        out += buf;
    }
    for (const auto *c : children_)
        out += c->dump(full);
    return out;
}

std::string
StatGroup::dumpJson() const
{
    std::string out = "{\n";
    bool first = true;
    char buf[64];
    for (const auto &kv : flatten()) {
        if (!first)
            out += ",\n";
        first = false;
        std::snprintf(buf, sizeof(buf), "%.6g", kv.second);
        out += "  \"" + kv.first + "\": " + buf;
    }
    out += "\n}\n";
    return out;
}

std::string
StatGroup::toJson() const
{
    std::string out = "{";
    bool first = true;
    auto key = [&](const std::string &name) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + jsonEscape(name) + "\":";
    };
    for (const auto *s : scalars_) {
        key(s->name);
        out += s->stat.toJson();
    }
    for (const auto &f : formulas_) {
        key(f.name);
        out += jsonNumber(f.fn());
    }
    for (const auto *d : dists_) {
        key(d->name);
        out += d->stat.toJson();
    }
    for (const auto *c : children_) {
        key(c->name());
        out += c->toJson();
    }
    out += "}";
    return out;
}

std::map<std::string, double>
StatGroup::flatten(const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ : prefix + "." + name_;
    std::map<std::string, double> out;
    for (const auto *s : scalars_)
        out[full + "." + s->name] = static_cast<double>(s->stat.value());
    for (const auto &f : formulas_)
        out[full + "." + f.name] = f.fn();
    for (const auto *d : dists_)
        out[full + "." + d->name + ".mean"] = d->stat.mean();
    for (const auto *c : children_) {
        auto sub = c->flatten(full);
        out.insert(sub.begin(), sub.end());
    }
    return out;
}

void
StatGroup::reset()
{
    for (auto *s : scalars_)
        s->stat.reset();
    for (auto *d : dists_)
        d->stat.reset();
    for (auto *c : children_)
        c->reset();
}

} // namespace sst
