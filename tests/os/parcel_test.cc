/**
 * @file
 * Parcel: wire format round trips, truncation safety, and malformed
 * input that must fail with a Status (huge lengths and counts, deep
 * nesting), including a seeded mutation property test over real
 * snapshot bundles.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/corpus.h"
#include "apps/simulated_app.h"
#include "os/bundle.h"
#include "os/parcel.h"
#include "platform/logging.h"
#include "platform/rng.h"
#include "sim/android_system.h"

namespace rchdroid {
namespace {

TEST(Parcel, PrimitiveRoundTrip)
{
    Parcel parcel;
    parcel.writeInt32(-5);
    parcel.writeInt64(1LL << 40);
    parcel.writeDouble(3.25);
    parcel.writeBool(true);
    parcel.writeString("str");

    EXPECT_EQ(parcel.readInt32().value(), -5);
    EXPECT_EQ(parcel.readInt64().value(), 1LL << 40);
    EXPECT_DOUBLE_EQ(parcel.readDouble().value(), 3.25);
    EXPECT_TRUE(parcel.readBool().value());
    EXPECT_EQ(parcel.readString().value(), "str");
    EXPECT_EQ(parcel.remaining(), 0u);
}

TEST(Parcel, TruncatedReadsFail)
{
    Parcel parcel;
    parcel.writeInt32(1);
    EXPECT_TRUE(parcel.readInt32());
    EXPECT_FALSE(parcel.readInt32());
    EXPECT_FALSE(parcel.readString());
}

TEST(Parcel, RewindRereads)
{
    Parcel parcel;
    parcel.writeInt32(99);
    EXPECT_EQ(parcel.readInt32().value(), 99);
    parcel.rewind();
    EXPECT_EQ(parcel.readInt32().value(), 99);
}

TEST(Parcel, EmptyBundleRoundTrip)
{
    const auto copy = roundTripBundle(Bundle{});
    ASSERT_TRUE(copy.isOk());
    EXPECT_TRUE(copy.value().empty());
}

TEST(Parcel, RichBundleRoundTrip)
{
    Bundle bundle;
    bundle.putInt("i", 7);
    bundle.putDouble("d", -1.5);
    bundle.putBool("b", false);
    bundle.putString("s", std::string("text with \0 binary", 18));
    bundle.putIntVector("iv", {10, 20});
    bundle.putStringVector("sv", {"x", "", "z"});
    Bundle nested;
    nested.putString("k", "v");
    bundle.putBundle("n", nested);

    const auto copy = roundTripBundle(bundle);
    ASSERT_TRUE(copy.isOk());
    EXPECT_TRUE(copy.value() == bundle);
}

TEST(Parcel, ParcelledSizeMatchesWrittenBytes)
{
    Bundle bundle;
    bundle.putString("key", "value");
    Parcel parcel;
    parcel.writeBundle(bundle);
    EXPECT_EQ(parcelledSize(bundle), parcel.sizeBytes());
    EXPECT_GT(parcelledSize(bundle), 0u);
}

TEST(Parcel, CorruptTagRejected)
{
    Parcel parcel;
    parcel.writeInt32(1);          // one entry
    parcel.writeString("key");
    parcel.writeInt32(999);        // bogus wire tag
    const auto result = parcel.readBundle();
    EXPECT_FALSE(result.isOk());
}

/** WireTag values (parcel.cc) the hand-built inputs below spell out. */
constexpr std::int32_t kTagIntVector = 5;
constexpr std::int32_t kTagStringVector = 6;
constexpr std::int32_t kTagNestedBundle = 7;

/** Bytes of one "count 1, key \"\", nested bundle" level. */
void
writeNestingLevel(Parcel &parcel)
{
    parcel.writeInt32(1);
    parcel.writeString("");
    parcel.writeInt32(kTagNestedBundle);
}

TEST(Parcel, HugeStringLengthFailsBeforeAllocating)
{
    Parcel parcel;
    parcel.writeInt32(0x7fffffff);
    parcel.writeBool(true); // one byte of payload
    const auto result = parcel.readString();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().message(),
              "string length 2147483647 exceeds the 1 bytes left");

    Parcel bundle;
    bundle.writeInt32(1);
    bundle.writeInt32(0x7fffffff); // the key's length
    bundle.writeBool(true);
    EXPECT_FALSE(bundle.readBundle().isOk());
}

TEST(Parcel, HugeVectorCountsFailBeforeAllocating)
{
    for (const std::int32_t tag : {kTagIntVector, kTagStringVector}) {
        Parcel parcel;
        parcel.writeInt32(1);
        parcel.writeString("v");
        parcel.writeInt32(tag);
        parcel.writeInt32(0x7fffffff);
        parcel.writeInt64(42);
        const auto result = parcel.readBundle();
        ASSERT_FALSE(result.isOk()) << tag;
        EXPECT_EQ(result.status().message(),
                  std::string(tag == kTagIntVector ? "int" : "string") +
                      " vector count 2147483647 exceeds the 8 bytes left");
    }
    // A count that fits the bytes left but not the element size fails too.
    Parcel parcel;
    parcel.writeInt32(1);
    parcel.writeString("v");
    parcel.writeInt32(kTagIntVector);
    parcel.writeInt32(2);
    parcel.writeInt64(42);
    parcel.writeInt32(0);
    const auto result = parcel.readBundle();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().message(),
              "int vector count 2 exceeds the 12 bytes left");
}

TEST(Parcel, HugeEntryCountFails)
{
    Parcel parcel;
    parcel.writeInt32(0x7fffffff);
    parcel.writeString("k");
    const auto result = parcel.readBundle();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().message(),
              "bundle entry count 2147483647 exceeds the 5 bytes left");
}

TEST(Parcel, NestingIsCappedAtTheLimit)
{
    // Exactly the limit round-trips.
    Bundle deepest;
    deepest.putInt("leaf", 1);
    for (int level = 1; level < Parcel::kMaxBundleNesting; ++level) {
        Bundle outer;
        outer.putBundle("n", deepest);
        deepest = std::move(outer);
    }
    const auto at_limit = roundTripBundle(deepest);
    ASSERT_TRUE(at_limit.isOk()) << at_limit.status().toString();
    EXPECT_TRUE(at_limit.value() == deepest);

    // One more level fails with an error naming the limit.
    Parcel one_more;
    writeNestingLevel(one_more);
    one_more.writeBundle(deepest);
    const auto too_deep = one_more.readBundle();
    ASSERT_FALSE(too_deep.isOk());
    EXPECT_EQ(too_deep.status().message(), "bundle nesting deeper than 64");
}

TEST(Parcel, MillionsOfNestedBundlesFailAtTheLimit)
{
    // 2,000,000 levels (24 MB) used to overflow the stack.
    Parcel parcel;
    for (int level = 0; level < 2'000'000; ++level)
        writeNestingLevel(parcel);
    parcel.writeInt32(0);
    const auto result = parcel.readBundle();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().message(), "bundle nesting deeper than 64");
}

/**
 * Snapshots of real apps in their canonical user state: the stock
 * partial save and RCHDroid's full snapshot of each.
 */
std::vector<Bundle>
snapshotBundles()
{
    ScopedLogSilencer quiet;
    std::vector<apps::AppSpec> specs = apps::tp37();
    for (apps::AppSpec &spec : apps::top100())
        specs.push_back(std::move(spec));
    std::vector<Bundle> out;
    for (std::size_t i = 0; i < specs.size(); i += 17) {
        sim::AndroidSystem system;
        system.install(specs[i]);
        system.launch(specs[i]);
        system.applyUserState(specs[i]);
        auto app = system.foregroundApp(specs[i]);
        out.push_back(app->saveInstanceStateNow(/*full=*/false));
        out.push_back(app->saveInstanceStateNow(/*full=*/true));
    }
    return out;
}

/** Overwrite four bytes at `at` with `value` (clipped at the end). */
void
splice(std::vector<std::uint8_t> &bytes, std::size_t at, std::int32_t value)
{
    std::uint8_t raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    for (std::size_t i = 0; i < sizeof(value) && at + i < bytes.size(); ++i)
        bytes[at + i] = raw[i];
}

/** One seeded corruption of a valid parcel's bytes. */
std::vector<std::uint8_t>
mutate(const std::vector<std::uint8_t> &valid, Rng &rng)
{
    std::vector<std::uint8_t> bytes = valid;
    const auto anywhere = [&] {
        return static_cast<std::size_t>(
            rng.nextInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
    };
    switch (rng.nextInt(0, 3)) {
      case 0: // truncate
        bytes.resize(anywhere());
        break;
      case 1: // flip bytes
        for (std::int64_t n = rng.nextInt(1, 8); n > 0; --n)
            bytes[anywhere()] ^= static_cast<std::uint8_t>(rng.nextInt(1, 255));
        break;
      case 2: { // splice in a huge or negative length/count
        constexpr std::int32_t kHuge[] = {0x7fffffff, 0x7ffffff0, 0x40000000,
                                          0x10000, -1, INT32_MIN};
        splice(bytes, anywhere(), kHuge[rng.nextInt(0, 5)]);
        break;
      }
      case 3: { // nest the whole parcel deeply
        Parcel prefix;
        for (std::int64_t n = rng.nextInt(1, 4 * Parcel::kMaxBundleNesting);
             n > 0; --n)
            writeNestingLevel(prefix);
        std::vector<std::uint8_t> nested = prefix.data();
        nested.insert(nested.end(), bytes.begin(), bytes.end());
        bytes = std::move(nested);
        break;
      }
    }
    return bytes;
}

TEST(ParcelProperty, MutatedSnapshotsReturnOkOrAnErrorStatus)
{
    const std::vector<Bundle> snapshots = snapshotBundles();
    ASSERT_GE(snapshots.size(), 10u);
    Rng rng(0x5041524345ull);
    int ok = 0, failed = 0;
    for (const Bundle &snapshot : snapshots) {
        Parcel valid;
        valid.writeBundle(snapshot);
        ASSERT_TRUE(valid.readBundle().value() == snapshot);
        for (int round = 0; round < 300; ++round) {
            const std::vector<std::uint8_t> bytes =
                mutate(valid.data(), rng);
            Parcel parcel(bytes);
            try {
                const Result<Bundle> result = parcel.readBundle();
                if (result.isOk())
                    ++ok;
                else
                    ++failed;
                EXPECT_TRUE(result.isOk() ||
                            !result.status().message().empty());
            } catch (const std::exception &e) {
                ADD_FAILURE() << "readBundle threw " << e.what();
            }
        }
    }
    // Both outcomes occur: the mutations are neither all fatal nor inert.
    EXPECT_GT(ok, 0);
    EXPECT_GT(failed, 0);
}

} // namespace
} // namespace rchdroid
