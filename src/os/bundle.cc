#include "os/bundle.h"

namespace rchdroid {

void
Bundle::putInt(const std::string &key, std::int64_t value)
{
    entries_[key] = value;
}

void
Bundle::putDouble(const std::string &key, double value)
{
    entries_[key] = value;
}

void
Bundle::putBool(const std::string &key, bool value)
{
    entries_[key] = value;
}

void
Bundle::putString(const std::string &key, std::string value)
{
    entries_[key] = std::move(value);
}

void
Bundle::putIntVector(const std::string &key, std::vector<std::int64_t> value)
{
    entries_[key] = std::move(value);
}

void
Bundle::putStringVector(const std::string &key, std::vector<std::string> value)
{
    entries_[key] = std::move(value);
}

void
Bundle::putBundle(const std::string &key, Bundle value)
{
    entries_[key] = std::make_shared<Bundle>(std::move(value));
}

const BundleValue *
Bundle::find(const std::string &key) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

namespace {

template <typename T>
const T *
lookup(const Bundle &bundle, const std::string &key)
{
    const BundleValue *value = bundle.find(key);
    return value ? std::get_if<T>(value) : nullptr;
}

const Bundle &
emptyBundle()
{
    static const Bundle empty;
    return empty;
}

} // namespace

std::int64_t
Bundle::getInt(const std::string &key, std::int64_t fallback) const
{
    const auto *v = lookup<std::int64_t>(*this, key);
    return v ? *v : fallback;
}

double
Bundle::getDouble(const std::string &key, double fallback) const
{
    const auto *v = lookup<double>(*this, key);
    return v ? *v : fallback;
}

bool
Bundle::getBool(const std::string &key, bool fallback) const
{
    const auto *v = lookup<bool>(*this, key);
    return v ? *v : fallback;
}

std::string
Bundle::getString(const std::string &key, const std::string &fallback) const
{
    const auto *v = lookup<std::string>(*this, key);
    return v ? *v : fallback;
}

std::vector<std::int64_t>
Bundle::getIntVector(const std::string &key) const
{
    const auto *v = lookup<std::vector<std::int64_t>>(*this, key);
    return v ? *v : std::vector<std::int64_t>{};
}

std::vector<std::string>
Bundle::getStringVector(const std::string &key) const
{
    const auto *v = lookup<std::vector<std::string>>(*this, key);
    return v ? *v : std::vector<std::string>{};
}

const Bundle &
Bundle::getBundle(const std::string &key) const
{
    const BundleValue *value = find(key);
    return value ? asBundle(*value) : emptyBundle();
}

const Bundle &
Bundle::asBundle(const BundleValue &value)
{
    const auto *nested = std::get_if<std::shared_ptr<Bundle>>(&value);
    return (nested && *nested) ? **nested : emptyBundle();
}

bool
Bundle::contains(const std::string &key) const
{
    return entries_.count(key) > 0;
}

void
Bundle::remove(const std::string &key)
{
    entries_.erase(key);
}

std::vector<std::string>
Bundle::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[key, value] : entries_) {
        (void)value;
        out.push_back(key);
    }
    return out;
}

namespace {

std::size_t
valueSize(const BundleValue &value)
{
    struct Sizer
    {
        std::size_t operator()(std::int64_t) const { return 8; }
        std::size_t operator()(double) const { return 8; }
        std::size_t operator()(bool) const { return 1; }
        std::size_t
        operator()(const std::string &s) const
        {
            return 4 + s.size();
        }
        std::size_t
        operator()(const std::vector<std::int64_t> &v) const
        {
            return 4 + v.size() * 8;
        }
        std::size_t
        operator()(const std::vector<std::string> &v) const
        {
            std::size_t n = 4;
            for (const auto &s : v)
                n += 4 + s.size();
            return n;
        }
        std::size_t
        operator()(const std::shared_ptr<Bundle> &b) const
        {
            return b ? b->approximateSizeBytes() : 0;
        }
    };
    return std::visit(Sizer{}, value);
}

bool
valueEquals(const BundleValue &a, const BundleValue &b)
{
    if (a.index() != b.index())
        return false;
    // Nested bundles are held by shared_ptr; compare structurally.
    if (const auto *pa = std::get_if<std::shared_ptr<Bundle>>(&a)) {
        const auto *pb = std::get_if<std::shared_ptr<Bundle>>(&b);
        if (!*pa || !*pb)
            return *pa == *pb;
        return **pa == **pb;
    }
    return a == b;
}

} // namespace

std::size_t
Bundle::approximateSizeBytes() const
{
    std::size_t total = 8;
    for (const auto &[key, value] : entries_)
        total += 4 + key.size() + 1 + valueSize(value);
    return total;
}

bool
Bundle::operator==(const Bundle &other) const
{
    if (entries_.size() != other.entries_.size())
        return false;
    auto it = entries_.begin();
    auto jt = other.entries_.begin();
    for (; it != entries_.end(); ++it, ++jt) {
        if (it->first != jt->first || !valueEquals(it->second, jt->second))
            return false;
    }
    return true;
}

} // namespace rchdroid
