#ifndef HOLIM_UTIL_CONTENT_HASH_H_
#define HOLIM_UTIL_CONTENT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace holim {

/// \brief Word-at-a-time content hash behind every cache fingerprint
/// (FingerprintParams and its siblings).
///
/// Each step folds one 64-bit word: the state is xored with the word and
/// multiplied by an odd constant, both bijections of the state, then
/// xor-shifted so high-bit differences reach the low bits the next
/// multiply spreads upward. (A bare xor-then-multiply keeps a flipped sign
/// bit confined to bit 63, so two sign flips cancel.) Because every step is
/// a bijection of the state for a fixed word, and of the word for a fixed
/// state, two inputs of equal length that differ in one word always hash
/// apart.
///
/// Bytes() folds a byte range a word per step, zero-pads the tail, then
/// folds the byte count, so ranges of different lengths are told apart and
/// consecutive ranges cannot trade bytes across their boundary. Words are
/// read in host byte order: values hash by representation, and hashes are
/// stable within one build, not across architectures.
class ContentHash {
 public:
  ContentHash& Word(uint64_t word) {
    state_ = (state_ ^ word) * 0x9E3779B97F4A7C15ULL;
    state_ ^= state_ >> 32;
    return *this;
  }

  ContentHash& Bytes(const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    const std::size_t whole = len - len % sizeof(uint64_t);
    for (std::size_t at = 0; at < whole; at += sizeof(uint64_t)) {
      uint64_t word = 0;
      std::memcpy(&word, bytes + at, sizeof(word));
      Word(word);
    }
    if (whole < len) {
      uint64_t tail = 0;
      std::memcpy(&tail, bytes + whole, len - whole);
      Word(tail);
    }
    return Word(len);
  }

  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;
};

}  // namespace holim

#endif  // HOLIM_UTIL_CONTENT_HASH_H_
