/**
 * @file
 * Bundle: the typed key/value state container used for activity state
 * snapshots, mirroring android.os.Bundle.
 *
 * RCHDroid snapshots the shadow-state activity through
 * onSaveInstanceState into a Bundle and replays that Bundle when
 * initialising the sunny-state instance (paper §3.3); the Android-10
 * baseline uses the same mechanism across a restart.
 */
#ifndef RCHDROID_OS_BUNDLE_H
#define RCHDROID_OS_BUNDLE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace rchdroid {

class Bundle;

/** The value types a Bundle can hold. */
using BundleValue = std::variant<std::int64_t,
                                 double,
                                 bool,
                                 std::string,
                                 std::vector<std::int64_t>,
                                 std::vector<std::string>,
                                 std::shared_ptr<Bundle>>;

/**
 * Recursive, typed key/value map.
 *
 * Getter misses return the supplied default, matching android.os.Bundle
 * semantics (this forgiving behaviour matters: the paper's unfixable apps
 * are exactly the ones whose state never lands in any bundle or view).
 */
class Bundle
{
  public:
    Bundle() = default;

    /** @name Typed setters
     * @{
     */
    void putInt(const std::string &key, std::int64_t value);
    void putDouble(const std::string &key, double value);
    void putBool(const std::string &key, bool value);
    void putString(const std::string &key, std::string value);
    void putIntVector(const std::string &key, std::vector<std::int64_t> value);
    void putStringVector(const std::string &key, std::vector<std::string> value);
    void putBundle(const std::string &key, Bundle value);
    /** @} */

    /** @name Typed getters with defaults
     * @{
     */
    std::int64_t getInt(const std::string &key, std::int64_t fallback = 0) const;
    double getDouble(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;
    std::string getString(const std::string &key,
                          const std::string &fallback = {}) const;
    std::vector<std::int64_t> getIntVector(const std::string &key) const;
    std::vector<std::string> getStringVector(const std::string &key) const;
    /** Nested bundle; empty bundle when missing. */
    Bundle getBundle(const std::string &key) const;
    /** @} */

    bool contains(const std::string &key) const;
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    void remove(const std::string &key);
    void clear() { entries_.clear(); }

    /** Keys in sorted order (map iteration order), for diffing in tests. */
    std::vector<std::string> keys() const;

    /**
     * Approximate serialized footprint in bytes, used by the memory model
     * to charge for retained saved-state.
     */
    std::size_t approximateSizeBytes() const;

    /** Deep structural equality. */
    bool operator==(const Bundle &other) const;

    /**
     * Raw entry access, in key order: the model checker's state hash and
     * its saved_restore oracle read it.
     */
    const std::map<std::string, BundleValue> &entries() const
    { return entries_; }

  private:
    std::map<std::string, BundleValue> entries_;
};

} // namespace rchdroid

#endif // RCHDROID_OS_BUNDLE_H
