/**
 * @file
 * Parcel: flat binary serialization for Bundle, mirroring android.os.Parcel.
 *
 * Activity state crosses the simulated binder boundary (ActivityThread ↔
 * ATMS) in parcel form; parcel size also feeds the IPC latency model, so
 * bigger saved state costs proportionally more to ship, as on real
 * Android.
 */
#ifndef RCHDROID_OS_PARCEL_H
#define RCHDROID_OS_PARCEL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "platform/status.h"

namespace rchdroid {

class Bundle;

/**
 * A growable byte buffer with typed read/write cursors.
 */
class Parcel
{
  public:
    Parcel() = default;
    /** A parcel over received bytes, read from the start (unmarshall). */
    explicit Parcel(std::vector<std::uint8_t> data) : data_(std::move(data)) {}

    /** @name Writers (append at the end)
     * @{
     */
    void writeInt32(std::int32_t v);
    void writeInt64(std::int64_t v);
    void writeDouble(double v);
    void writeBool(bool v);
    void writeString(const std::string &s);
    /** @} */

    /** @name Readers (advance the read cursor)
     * Readers return Internal status on truncated data.
     * @{
     */
    Result<std::int32_t> readInt32();
    Result<std::int64_t> readInt64();
    Result<double> readDouble();
    Result<bool> readBool();
    Result<std::string> readString();
    /** @} */

    std::size_t sizeBytes() const { return data_.size(); }
    std::size_t remaining() const { return data_.size() - read_pos_; }
    void rewind() { read_pos_ = 0; }
    const std::vector<std::uint8_t> &data() const { return data_; }

    /** Serialize a bundle (recursively) into this parcel. */
    void writeBundle(const Bundle &bundle);

    /**
     * Deserialize a bundle previously written by writeBundle. Malformed
     * input yields an error Status, never an exception or a crash: every
     * length and count is checked against the bytes left before
     * anything is allocated, and nesting deeper than kMaxBundleNesting
     * is rejected.
     */
    Result<Bundle> readBundle();

    /** Nested bundles readBundle accepts (the trace JSON reader's limit). */
    static constexpr int kMaxBundleNesting = 64;

  private:
    Result<Bundle> readBundleAt(int depth);
    /** Read a count of elements that take at least `min_bytes` each. */
    Result<std::size_t> readCount(const char *what, std::size_t min_bytes);
    Status checkAvailable(std::size_t n) const;
    void writeRaw(const void *p, std::size_t n);
    Status readRaw(void *p, std::size_t n);

    std::vector<std::uint8_t> data_;
    std::size_t read_pos_ = 0;
};

/** Convenience: bundle → parcel byte count (memory/IPC sizing). */
std::size_t parcelledSize(const Bundle &bundle);

/** Convenience: deep-copy a bundle through serialization (tests). */
Result<Bundle> roundTripBundle(const Bundle &bundle);

} // namespace rchdroid

#endif // RCHDROID_OS_PARCEL_H
