#include "common/config.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace sst
{

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, const char *value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, std::uint64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, int value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        defaults_[key] = def;
        return def;
    }
    return it->second;
}

Result<std::int64_t>
Config::tryGetInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        defaults_[key] = std::to_string(def);
        return def;
    }
    char *end = nullptr;
    errno = 0;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
        return Error{log_detail::format(
            "config key '%s': '%s' is not an integer", key.c_str(),
            it->second.c_str())};
    return v;
}

Result<std::uint64_t>
Config::tryGetUint(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        defaults_[key] = std::to_string(def);
        return def;
    }
    // strtoull accepts a sign and wraps "-1" to 2^64-1; no unsigned
    // value contains a '-', so reject it outright.
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE
        || it->second.find('-') != std::string::npos)
        return Error{log_detail::format(
            "config key '%s': '%s' is not an unsigned integer",
            key.c_str(), it->second.c_str())};
    return v;
}

Result<double>
Config::tryGetDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        defaults_[key] = std::to_string(def);
        return def;
    }
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        return Error{log_detail::format(
            "config key '%s': '%s' is not a number", key.c_str(),
            it->second.c_str())};
    return v;
}

Result<bool>
Config::tryGetBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        defaults_[key] = def ? "true" : "false";
        return def;
    }
    const std::string &s = it->second;
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    return Error{log_detail::format(
        "config key '%s': '%s' is not a boolean", key.c_str(), s.c_str())};
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    auto r = tryGetInt(key, def);
    fatal_if(!r.ok(), "%s", r.error().message.c_str());
    return r.value();
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    auto r = tryGetUint(key, def);
    fatal_if(!r.ok(), "%s", r.error().message.c_str());
    return r.value();
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto r = tryGetDouble(key, def);
    fatal_if(!r.ok(), "%s", r.error().message.c_str());
    return r.value();
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto r = tryGetBool(key, def);
    fatal_if(!r.ok(), "%s", r.error().message.c_str());
    return r.value();
}

Result<void>
Config::tryParseAssignment(const std::string &text)
{
    auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return Error{log_detail::format("expected key=value, got '%s'",
                                        text.c_str()),
                     exit_code::usage};
    set(text.substr(0, eq), text.substr(eq + 1));
    return {};
}

void
Config::parseAssignment(const std::string &text)
{
    auto r = tryParseAssignment(text);
    fatal_if(!r.ok(), "%s", r.error().message.c_str());
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        parseAssignment(argv[i]);
}

void
Config::merge(const Config &other)
{
    for (const auto &kv : other.values_)
        values_[kv.first] = kv.second;
}

std::vector<std::pair<std::string, std::string>>
Config::items() const
{
    std::map<std::string, std::string> all = defaults_;
    for (const auto &kv : values_)
        all[kv.first] = kv.second;
    return {all.begin(), all.end()};
}

unsigned
editDistance(const std::string &a, const std::string &b)
{
    // One-row dynamic program; strings here are short config keys.
    std::vector<unsigned> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = static_cast<unsigned>(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        unsigned diag = row[0];
        row[0] = static_cast<unsigned>(i);
        for (std::size_t j = 1; j <= b.size(); ++j) {
            unsigned subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

std::string
closestMatch(const std::string &needle,
             const std::vector<std::string> &candidates,
             unsigned maxDistance)
{
    std::string best;
    unsigned best_d = maxDistance + 1;
    for (const auto &c : candidates) {
        unsigned d = editDistance(needle, c);
        if (d < best_d) {
            best_d = d;
            best = c;
        }
    }
    return best;
}

std::string
Config::dump() const
{
    std::string out;
    for (const auto &kv : items()) {
        out += kv.first;
        out += " = ";
        out += kv.second;
        out += '\n';
    }
    return out;
}

} // namespace sst
