/**
 * @file
 * BaseView: a non-owning view of DNA base codes backed by either a
 * byte-per-base span or a 2-bit PackedSequence.
 *
 * The filter and extension stages only ever touch bases through small
 * windows (a filter tile, an extension tile, a stitched alignment's
 * span). BaseView lets those stages run over packed storage without a
 * whole-sequence decode: `materialize` returns the backing span
 * directly in byte mode (zero-copy, the historical fast path) and
 * decodes just the requested window into caller scratch in packed
 * mode. Decoded bytes are bit-identical to the byte representation
 * (N decodes to BaseN), so every downstream kernel result is
 * unchanged by the backing choice.
 */
#ifndef DARWIN_SEQ_BASE_VIEW_H
#define DARWIN_SEQ_BASE_VIEW_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "seq/packed_sequence.h"

namespace darwin::seq {

/** A byte-span- or packed-backed window of base codes. */
class BaseView {
  public:
    BaseView() = default;

    /*implicit*/ BaseView(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }

    /*implicit*/ BaseView(const PackedSequence& packed) : packed_(&packed) {}

    /*implicit*/ BaseView(const Sequence& sequence) : bytes_(sequence.codes())
    {
    }

    std::size_t
    size() const
    {
        return packed_ ? packed_->size() : bytes_.size();
    }

    bool packed() const { return packed_ != nullptr; }

    /** The backing PackedSequence (nullptr in byte mode). */
    const PackedSequence* packed_sequence() const { return packed_; }

    /** The backing byte span (empty in packed mode). */
    std::span<const std::uint8_t> bytes() const { return bytes_; }

    std::uint8_t
    operator[](std::size_t i) const
    {
        return packed_ ? (*packed_)[i] : bytes_[i];
    }

    /** Copy/decode [start, start+len) forward into `out` (resized). */
    void
    fetch(std::size_t start, std::size_t len,
          std::vector<std::uint8_t>* out) const
    {
        out->resize(len);
        if (packed_) {
            packed_->decode(start, len, out->data());
        } else {
            std::copy_n(bytes_.data() + start, len, out->data());
        }
    }

    /** Copy/decode the reversed slice [end-len, end) into `out`:
     *  out[k] = base(end - 1 - k). */
    void
    fetch_reversed(std::size_t end, std::size_t len,
                   std::vector<std::uint8_t>* out) const
    {
        fetch(end - len, len, out);
        std::reverse(out->begin(), out->end());
    }

    /**
     * A byte span over [start, start+len): the backing span itself in
     * byte mode (zero-copy; `scratch` untouched), a decode into
     * `scratch` in packed mode. The span is valid while the backing
     * storage and `scratch` are.
     */
    std::span<const std::uint8_t>
    materialize(std::size_t start, std::size_t len,
                std::vector<std::uint8_t>* scratch) const
    {
        if (!packed_)
            return bytes_.subspan(start, len);
        scratch->resize(len);
        packed_->decode(start, len, scratch->data());
        return {scratch->data(), len};
    }

  private:
    std::span<const std::uint8_t> bytes_;
    const PackedSequence* packed_ = nullptr;
};

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_BASE_VIEW_H
