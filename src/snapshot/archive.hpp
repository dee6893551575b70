// Serialization visitor for the SoC checkpoint/restore subsystem
// (hulkv::snapshot, DESIGN.md section 11).
//
// Every stateful block implements one traversal,
//
//   void serialize(snapshot::Archive& ar);
//
// that visits each state member exactly once. The same traversal drives
// three consumers, selected by the Archive's mode:
//
//   * kSave  — members are appended to a byte buffer,
//   * kLoad  — members are read back from a byte buffer,
//   * kHash  — members are folded into a 64-bit FNV-1a digest
//              (Soc::state_digest(), cheap state-equality checks).
//
// Because save, load and digest share one traversal, they cannot drift
// apart: a member added to the traversal is automatically captured,
// restored and hashed. The byte encoding is the host's native layout
// (the simulator targets a single build host; snapshots are not a
// cross-machine interchange format — see DESIGN.md section 11).
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace hulkv::snapshot {

/// FNV-1a 64-bit, the digest primitive used by kHash mode and the
/// container checksum.
inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr u64 kFnvPrime = 0x100000001b3ull;

inline u64 fnv1a(u64 hash, const void* data, u64 len) {
  const u8* p = static_cast<const u8*>(data);
  for (u64 i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

class Archive {
 public:
  enum class Mode { kSave, kLoad, kHash };

  /// Append serialized state to `out`.
  static Archive saver(std::vector<u8>* out) {
    Archive ar(Mode::kSave);
    ar.out_ = out;
    return ar;
  }

  /// Read state back from `data` (the Archive does not own the bytes).
  static Archive loader(const u8* data, u64 size) {
    Archive ar(Mode::kLoad);
    ar.in_ = data;
    ar.in_size_ = size;
    return ar;
  }

  /// Fold visited state into an FNV-1a digest (read via hash()).
  static Archive hasher() { return Archive(Mode::kHash); }

  Mode mode() const { return mode_; }
  bool loading() const { return mode_ == Mode::kLoad; }

  /// Digest accumulated so far (kHash mode).
  u64 hash() const { return hash_; }

  /// Unconsumed bytes (kLoad mode) — 0 after a complete traversal.
  u64 remaining() const { return in_size_ - in_pos_; }

  /// Visit `len` raw bytes at `data`.
  void bytes(void* data, u64 len);

  /// Visit one trivially copyable scalar/struct.
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Archive::pod needs a trivially copyable type");
    bytes(&v, sizeof(T));
  }

  /// Visit a length-prefixed string.
  void str(std::string& s);

  /// Visit a length-prefixed vector of trivially copyable elements.
  template <typename T>
  void pod_vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Archive::pod_vec needs trivially copyable elements");
    u64 count = v.size();
    pod(count);
    if (loading()) {
      check_available(count, sizeof(T));
      v.resize(count);
    }
    if (count != 0) bytes(v.data(), count * sizeof(T));
  }

  /// Visit a vector<bool> (stored as one byte per element).
  void bool_vec(std::vector<bool>& v);

 private:
  explicit Archive(Mode mode) : mode_(mode) {}

  /// kLoad: throw SimError unless `count` elements of `elem_bytes` each
  /// fit in the unconsumed input. Called before anything is sized from
  /// a length prefix read from the input (no wrap, no count * size
  /// overflow).
  void check_available(u64 count, u64 elem_bytes) const;

  Mode mode_;
  std::vector<u8>* out_ = nullptr;
  const u8* in_ = nullptr;
  u64 in_size_ = 0;
  u64 in_pos_ = 0;
  u64 hash_ = kFnvOffset;
};

}  // namespace hulkv::snapshot
