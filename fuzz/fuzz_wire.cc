// Fuzz target: the wire-protocol FrameDecoder plus every typed payload
// decoder behind it (promoted from wire_test's ad-hoc mutation loop).
// Invariant: arbitrary bytes either decode cleanly or throw WireError —
// no crash, no wild read, no unbounded allocation. Each input is decoded
// twice: through the copying pop (Next + DecodeRow over a vector) and
// through the copy-free pop (NextView + DecodeRow over the view, with the
// input fed in two reads). Both must yield the same frames and values, or
// both must throw WireError at the same frame.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "fdb/serve/wire.h"
#include "fuzz_driver.h"

namespace {

using namespace fdb::serve;

// What one frame decoded to: its type, its payload, and for a Row frame
// its values re-encoded (so values compare by their bits, NaN included).
struct Decoded {
  FrameType type;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> values;
  bool operator==(const Decoded&) const = default;
};

// Decodes one frame's payload by type; throws WireError if it is malformed.
Decoded DecodePayload(FrameType type, const uint8_t* data, size_t n,
                      bool span) {
  Decoded d{type, std::vector<uint8_t>(data, data + n), {}};
  switch (type) {
    case FrameType::kHello:
      DecodeHello(d.payload);
      break;
    case FrameType::kSchema:
      (void)DecodeSchema(d.payload);
      break;
    case FrameType::kRow:
      d.values = EncodeRow(span ? DecodeRow(data, n, 4)
                                : DecodeRow(d.payload, 4));
      break;
    case FrameType::kDone:
      (void)DecodeDone(d.payload);
      break;
    case FrameType::kError:
      (void)DecodeError(d.payload);
      break;
    case FrameType::kRetry:
      (void)DecodeRetry(d.payload);
      break;
    case FrameType::kQuery:
      // Query payloads are free-form statement text.
      break;
  }
  return d;
}

// The frames decoded before the stream ended or was rejected, and whether
// it was rejected.
struct Outcome {
  std::vector<Decoded> frames;
  bool rejected = false;
  bool operator==(const Outcome&) const = default;
};

Outcome DecodeCopying(const uint8_t* data, size_t size) {
  Outcome out;
  FrameDecoder dec;
  try {
    dec.Feed(data, size);
    Frame f;
    while (dec.Next(&f)) {
      out.frames.push_back(
          DecodePayload(f.type, f.payload.data(), f.payload.size(), false));
    }
  } catch (const WireError&) {
    out.rejected = true;
  }
  return out;
}

Outcome DecodeViews(const uint8_t* data, size_t size) {
  Outcome out;
  FrameDecoder dec;
  try {
    size_t split = size / 2;
    for (auto [from, to] : {std::pair{size_t{0}, split},
                            std::pair{split, size}}) {
      dec.Feed(data + from, to - from);
      FrameView v;
      while (dec.NextView(&v)) {
        out.frames.push_back(DecodePayload(v.type, v.data, v.size, true));
      }
    }
  } catch (const WireError&) {
    out.rejected = true;
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (!(DecodeCopying(data, size) == DecodeViews(data, size))) {
    std::cerr << "fuzz_wire: the copy-free decode disagrees with the "
                 "copying decode\n";
    std::abort();
  }
  return 0;
}
