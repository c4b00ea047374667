#include "os/parcel.h"

#include <cstring>
#include <string>

#include "os/bundle.h"
#include "platform/logging.h"

namespace rchdroid {

namespace {

/** Type tags used on the wire for bundle values. */
enum class WireTag : std::int32_t {
    Int = 1,
    Double = 2,
    Bool = 3,
    String = 4,
    IntVector = 5,
    StringVector = 6,
    NestedBundle = 7,
};

} // namespace

void
Parcel::writeRaw(const void *p, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(p);
    data_.insert(data_.end(), bytes, bytes + n);
}

Status
Parcel::checkAvailable(std::size_t n) const
{
    if (read_pos_ + n > data_.size())
        return Status::internal("parcel truncated");
    return Status::ok();
}

Status
Parcel::readRaw(void *p, std::size_t n)
{
    if (auto st = checkAvailable(n); !st)
        return st;
    std::memcpy(p, data_.data() + read_pos_, n);
    read_pos_ += n;
    return Status::ok();
}

void
Parcel::writeInt32(std::int32_t v)
{
    writeRaw(&v, sizeof(v));
}

void
Parcel::writeInt64(std::int64_t v)
{
    writeRaw(&v, sizeof(v));
}

void
Parcel::writeDouble(double v)
{
    writeRaw(&v, sizeof(v));
}

void
Parcel::writeBool(bool v)
{
    const std::uint8_t byte = v ? 1 : 0;
    writeRaw(&byte, 1);
}

void
Parcel::writeString(const std::string &s)
{
    writeInt32(static_cast<std::int32_t>(s.size()));
    writeRaw(s.data(), s.size());
}

Result<std::int32_t>
Parcel::readInt32()
{
    std::int32_t v = 0;
    if (auto st = readRaw(&v, sizeof(v)); !st)
        return st;
    return v;
}

Result<std::int64_t>
Parcel::readInt64()
{
    std::int64_t v = 0;
    if (auto st = readRaw(&v, sizeof(v)); !st)
        return st;
    return v;
}

Result<double>
Parcel::readDouble()
{
    double v = 0;
    if (auto st = readRaw(&v, sizeof(v)); !st)
        return st;
    return v;
}

Result<bool>
Parcel::readBool()
{
    std::uint8_t byte = 0;
    if (auto st = readRaw(&byte, 1); !st)
        return st;
    return byte != 0;
}

Result<std::size_t>
Parcel::readCount(const char *what, std::size_t min_bytes)
{
    auto n = readInt32();
    if (!n)
        return n.status();
    if (n.value() < 0)
        return Status::internal(std::string("negative ") + what);
    const auto count = static_cast<std::size_t>(n.value());
    if (count > remaining() / min_bytes) {
        return Status::internal(std::string(what) + " " +
                                std::to_string(count) + " exceeds the " +
                                std::to_string(remaining()) + " bytes left");
    }
    return count;
}

Result<std::string>
Parcel::readString()
{
    auto len = readCount("string length", 1);
    if (!len)
        return len.status();
    std::string s(len.value(), '\0');
    if (auto st = readRaw(s.data(), s.size()); !st)
        return st;
    return s;
}

void
Parcel::writeBundle(const Bundle &bundle)
{
    writeInt32(static_cast<std::int32_t>(bundle.entries().size()));
    for (const auto &[key, value] : bundle.entries()) {
        writeString(key);
        struct Writer
        {
            Parcel &p;
            void
            operator()(std::int64_t v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::Int));
                p.writeInt64(v);
            }
            void
            operator()(double v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::Double));
                p.writeDouble(v);
            }
            void
            operator()(bool v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::Bool));
                p.writeBool(v);
            }
            void
            operator()(const std::string &v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::String));
                p.writeString(v);
            }
            void
            operator()(const std::vector<std::int64_t> &v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::IntVector));
                p.writeInt32(static_cast<std::int32_t>(v.size()));
                for (auto x : v)
                    p.writeInt64(x);
            }
            void
            operator()(const std::vector<std::string> &v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::StringVector));
                p.writeInt32(static_cast<std::int32_t>(v.size()));
                for (const auto &x : v)
                    p.writeString(x);
            }
            void
            operator()(const std::shared_ptr<Bundle> &v) const
            {
                p.writeInt32(static_cast<std::int32_t>(WireTag::NestedBundle));
                p.writeBundle(v ? *v : Bundle{});
            }
        };
        std::visit(Writer{*this}, value);
    }
}

Result<Bundle>
Parcel::readBundle()
{
    return readBundleAt(1);
}

Result<Bundle>
Parcel::readBundleAt(int depth)
{
    if (depth > kMaxBundleNesting) {
        return Status::internal("bundle nesting deeper than " +
                                std::to_string(kMaxBundleNesting));
    }
    // An entry is at least a key length and a wire tag.
    auto count = readCount("bundle entry count", 8);
    if (!count)
        return count.status();

    Bundle out;
    for (std::size_t i = 0; i < count.value(); ++i) {
        auto key = readString();
        if (!key)
            return key.status();
        auto tag = readInt32();
        if (!tag)
            return tag.status();
        switch (static_cast<WireTag>(tag.value())) {
          case WireTag::Int: {
            auto v = readInt64();
            if (!v)
                return v.status();
            out.putInt(key.value(), v.value());
            break;
          }
          case WireTag::Double: {
            auto v = readDouble();
            if (!v)
                return v.status();
            out.putDouble(key.value(), v.value());
            break;
          }
          case WireTag::Bool: {
            auto v = readBool();
            if (!v)
                return v.status();
            out.putBool(key.value(), v.value());
            break;
          }
          case WireTag::String: {
            auto v = readString();
            if (!v)
                return v.status();
            out.putString(key.value(), v.value());
            break;
          }
          case WireTag::IntVector: {
            auto n = readCount("int vector count", sizeof(std::int64_t));
            if (!n)
                return n.status();
            std::vector<std::int64_t> vec;
            vec.reserve(n.value());
            for (std::size_t j = 0; j < n.value(); ++j) {
                auto v = readInt64();
                if (!v)
                    return v.status();
                vec.push_back(v.value());
            }
            out.putIntVector(key.value(), std::move(vec));
            break;
          }
          case WireTag::StringVector: {
            // A string is at least its length.
            auto n = readCount("string vector count", sizeof(std::int32_t));
            if (!n)
                return n.status();
            std::vector<std::string> vec;
            vec.reserve(n.value());
            for (std::size_t j = 0; j < n.value(); ++j) {
                auto v = readString();
                if (!v)
                    return v.status();
                vec.push_back(v.value());
            }
            out.putStringVector(key.value(), std::move(vec));
            break;
          }
          case WireTag::NestedBundle: {
            auto v = readBundleAt(depth + 1);
            if (!v)
                return v.status();
            out.putBundle(key.value(), std::move(v).value());
            break;
          }
          default:
            return Status::internal("unknown wire tag");
        }
    }
    return out;
}

std::size_t
parcelledSize(const Bundle &bundle)
{
    Parcel p;
    p.writeBundle(bundle);
    return p.sizeBytes();
}

Result<Bundle>
roundTripBundle(const Bundle &bundle)
{
    Parcel p;
    p.writeBundle(bundle);
    return p.readBundle();
}

} // namespace rchdroid
