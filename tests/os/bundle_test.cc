/**
 * @file
 * Bundle: typed storage, defaults, nesting, equality, sizing.
 */
#include <gtest/gtest.h>

#include "os/bundle.h"

namespace rchdroid {
namespace {

TEST(Bundle, TypedRoundTrips)
{
    Bundle bundle;
    bundle.putInt("i", -7);
    bundle.putDouble("d", 2.5);
    bundle.putBool("b", true);
    bundle.putString("s", "hello");
    bundle.putIntVector("iv", {1, 2, 3});
    bundle.putStringVector("sv", {"a", "b"});

    EXPECT_EQ(bundle.getInt("i"), -7);
    EXPECT_DOUBLE_EQ(bundle.getDouble("d"), 2.5);
    EXPECT_TRUE(bundle.getBool("b"));
    EXPECT_EQ(bundle.getString("s"), "hello");
    EXPECT_EQ(bundle.getIntVector("iv"), (std::vector<std::int64_t>{1, 2, 3}));
    EXPECT_EQ(bundle.getStringVector("sv"),
              (std::vector<std::string>{"a", "b"}));
}

TEST(Bundle, MissingKeysReturnFallbacks)
{
    Bundle bundle;
    EXPECT_EQ(bundle.getInt("nope", 9), 9);
    EXPECT_EQ(bundle.getString("nope", "dflt"), "dflt");
    EXPECT_FALSE(bundle.getBool("nope"));
    EXPECT_TRUE(bundle.getIntVector("nope").empty());
    EXPECT_TRUE(bundle.getBundle("nope").empty());
}

TEST(Bundle, WrongTypeReturnsFallback)
{
    Bundle bundle;
    bundle.putString("key", "text");
    EXPECT_EQ(bundle.getInt("key", -1), -1);
}

TEST(Bundle, OverwriteReplacesValueAndType)
{
    Bundle bundle;
    bundle.putInt("k", 1);
    bundle.putString("k", "now a string");
    EXPECT_EQ(bundle.size(), 1u);
    EXPECT_EQ(bundle.getString("k"), "now a string");
}

TEST(Bundle, NestedBundles)
{
    Bundle inner;
    inner.putInt("x", 42);
    Bundle outer;
    outer.putBundle("inner", inner);
    EXPECT_EQ(outer.getBundle("inner").getInt("x"), 42);
}

TEST(Bundle, DeepNesting)
{
    Bundle l3;
    l3.putString("leaf", "deep");
    Bundle l2;
    l2.putBundle("l3", l3);
    Bundle l1;
    l1.putBundle("l2", l2);
    EXPECT_EQ(l1.getBundle("l2").getBundle("l3").getString("leaf"), "deep");
}

TEST(Bundle, GetBundleReadsNestedInPlace)
{
    Bundle inner;
    inner.putInt("x", 42);
    Bundle outer;
    outer.putBundle("inner", inner);
    outer.putInt("number", 7);

    const Bundle &first = outer.getBundle("inner");
    const Bundle &second = outer.getBundle("inner");
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(first.getInt("x"), 42);
    // A miss, or a key holding another type, reads as an empty bundle.
    EXPECT_TRUE(outer.getBundle("missing").empty());
    EXPECT_TRUE(outer.getBundle("number").empty());
}

TEST(Bundle, FindReturnsNullOnMiss)
{
    Bundle bundle;
    bundle.putInt("k", 5);
    EXPECT_EQ(bundle.find("missing"), nullptr);
    const BundleValue *found = bundle.find("k");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(std::get<std::int64_t>(*found), 5);
    // A non-bundle value reads as the empty bundle through asBundle.
    EXPECT_TRUE(Bundle::asBundle(*found).empty());
}

TEST(Bundle, ContainsRemoveClear)
{
    Bundle bundle;
    bundle.putInt("a", 1);
    bundle.putInt("b", 2);
    EXPECT_TRUE(bundle.contains("a"));
    bundle.remove("a");
    EXPECT_FALSE(bundle.contains("a"));
    bundle.clear();
    EXPECT_TRUE(bundle.empty());
}

TEST(Bundle, KeysSorted)
{
    Bundle bundle;
    bundle.putInt("zz", 1);
    bundle.putInt("aa", 2);
    bundle.putInt("mm", 3);
    EXPECT_EQ(bundle.keys(), (std::vector<std::string>{"aa", "mm", "zz"}));
}

TEST(Bundle, StructuralEquality)
{
    Bundle a, b;
    a.putInt("x", 1);
    a.putBundle("n", [] { Bundle n; n.putString("s", "v"); return n; }());
    b.putInt("x", 1);
    b.putBundle("n", [] { Bundle n; n.putString("s", "v"); return n; }());
    EXPECT_TRUE(a == b);
    b.putInt("x", 2);
    EXPECT_FALSE(a == b);
}

TEST(Bundle, SizeGrowsWithContent)
{
    Bundle small;
    small.putInt("k", 1);
    Bundle big = small;
    big.putString("text", std::string(1000, 'x'));
    EXPECT_GT(big.approximateSizeBytes(),
              small.approximateSizeBytes() + 1000);
}

} // namespace
} // namespace rchdroid
