#include "snapshot/archive.hpp"

#include <cstring>

namespace hulkv::snapshot {

void Archive::bytes(void* data, u64 len) {
  switch (mode_) {
    case Mode::kSave:
      out_->insert(out_->end(), static_cast<const u8*>(data),
                   static_cast<const u8*>(data) + len);
      break;
    case Mode::kLoad:
      check_available(len, 1);
      std::memcpy(data, in_ + in_pos_, len);
      in_pos_ += len;
      break;
    case Mode::kHash:
      hash_ = fnv1a(hash_, data, len);
      break;
  }
}

void Archive::check_available(u64 count, u64 elem_bytes) const {
  // in_pos_ never passes in_size_, so remaining() cannot wrap; dividing
  // instead of multiplying keeps count * elem_bytes from overflowing.
  if (count > remaining() / elem_bytes) {
    const std::string each =
        elem_bytes == 1 ? "" : " x " + std::to_string(elem_bytes);
    throw SimError("snapshot: truncated section (wanted " +
                   std::to_string(count) + each + " bytes, " +
                   std::to_string(remaining()) + " left)");
  }
}

void Archive::str(std::string& s) {
  u64 len = s.size();
  pod(len);
  if (loading()) {
    check_available(len, 1);
    s.resize(len);
  }
  if (len != 0) bytes(s.data(), len);
}

void Archive::bool_vec(std::vector<bool>& v) {
  u64 count = v.size();
  pod(count);
  if (loading()) check_available(count, 1);
  std::vector<u8> raw(count);
  if (!loading()) {
    for (u64 i = 0; i < count; ++i) raw[i] = v[i] ? 1 : 0;
  }
  if (count != 0) bytes(raw.data(), count);
  if (loading()) {
    v.assign(count, false);
    for (u64 i = 0; i < count; ++i) v[i] = raw[i] != 0;
  }
}

}  // namespace hulkv::snapshot
