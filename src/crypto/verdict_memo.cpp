#include "crypto/verdict_memo.h"

#include <cstring>

namespace coincidence::crypto {

namespace {

constexpr std::size_t kLenBytes = 8;

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::size_t framed_size(VerdictMemo::Fields key) {
  std::size_t total = 0;
  for (BytesView f : key) total += kLenBytes + f.size();
  return total;
}

Bytes framed(VerdictMemo::Fields key) {
  Bytes out(framed_size(key));
  std::uint8_t* p = out.data();
  for (BytesView f : key) {
    put_u64(p, f.size());
    p += kLenBytes;
    if (!f.empty()) std::memcpy(p, f.data(), f.size());
    p += f.size();
  }
  return out;
}

bool same_key(const Bytes& stored, VerdictMemo::Fields key) {
  if (framed_size(key) != stored.size()) return false;
  const std::uint8_t* p = stored.data();
  for (BytesView f : key) {
    std::uint8_t len[kLenBytes];
    put_u64(len, f.size());
    if (std::memcmp(p, len, kLenBytes) != 0) return false;
    p += kLenBytes;
    if (!f.empty() && std::memcmp(p, f.data(), f.size()) != 0) return false;
    p += f.size();
  }
  return true;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

// Callers may pass raw digest bits as the fingerprint; the finalizer
// spreads any of them over the low bits the mask keeps.
std::size_t home(std::uint64_t fp, std::size_t mask) {
  fp ^= fp >> 33;
  fp *= 0xff51afd7ed558ccdULL;
  fp ^= fp >> 33;
  return static_cast<std::size_t>(fp) & mask;
}

}  // namespace

VerdictMemo::IntField::IntField(std::uint64_t v) { put_u64(bytes_.data(), v); }

std::uint64_t VerdictMemo::fingerprint(Fields key) {
  // Two independent lanes (even and odd words) halve the multiply chain.
  std::uint64_t a = 0x9e3779b97f4a7c15ULL;
  std::uint64_t b = 0xc2b2ae3d27d4eb4fULL;
  for (BytesView f : key) {
    a = mix(a, f.size());
    const std::uint8_t* p = f.data();
    std::size_t left = f.size();
    for (; left >= 16; p += 16, left -= 16) {
      std::uint64_t w[2];
      std::memcpy(w, p, 16);
      a = mix(a, w[0]);
      b = mix(b, w[1]);
    }
    if (left > 0) {
      std::uint64_t w[2] = {0, 0};
      std::memcpy(w, p, left);
      a = mix(a, w[0]);
      b = mix(b, w[1]);
    }
  }
  return mix(a, b);
}

template <typename Same>
std::size_t VerdictMemo::probe(std::uint64_t fp, Same same) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(fp, mask);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.entry == 0 || (s.fp == fp && same(entries_[s.entry - 1].key)))
      return i;
  }
}

template <typename Same, typename Framed>
void VerdictMemo::insert(std::uint64_t fp, bool ok, Same same,
                         Framed framed_key) {
  if (2 * (entries_.size() + 1) > slots_.size()) grow();
  Slot& s = slots_[probe(fp, same)];
  if (s.entry != 0) {
    entries_[s.entry - 1].ok = ok;
    return;
  }
  entries_.push_back(Entry{framed_key(), ok});
  s = Slot{fp, entries_.size()};
}

std::optional<bool> VerdictMemo::lookup(std::uint64_t fp, Fields key) const {
  if (!slots_.empty()) {
    const Slot& s = slots_[probe(
        fp, [&](const Bytes& stored) { return same_key(stored, key); })];
    if (s.entry != 0) {
      ++hits_;
      return entries_[s.entry - 1].ok;
    }
  }
  ++misses_;
  return std::nullopt;
}

void VerdictMemo::store(std::uint64_t fp, Fields key, bool ok) {
  defer_write([this, fp, key = framed(key), ok]() mutable {
    insert(
        fp, ok, [&](const Bytes& stored) { return stored == key; },
        [&] { return std::move(key); });
  });
}

void VerdictMemo::store_retained(std::uint64_t fp, Bytes head,
                                 SharedBytes owner, BytesView tail, bool ok) {
  defer_write([this, fp, head = std::move(head), owner = std::move(owner),
               tail, ok] {
    const Fields key = {BytesView(head), tail};
    insert(
        fp, ok, [&](const Bytes& stored) { return same_key(stored, key); },
        [&] { return framed(key); });
  });
}

void VerdictMemo::grow() {
  std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.entry == 0) continue;
    std::size_t i = home(s.fp, mask);
    while (slots_[i].entry != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace coincidence::crypto
