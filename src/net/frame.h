#ifndef SKNN_NET_FRAME_H_
#define SKNN_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

// Framed transport envelope (PROTOCOL.md "Frame envelope & recovery").
//
// Every message that crosses a protocol channel is wrapped in a fixed
// 32-byte header so the receiving endpoint can *detect* corruption,
// truncation, duplication, and desynchronization instead of misparsing
// ciphertext bytes:
//
//   offset size field
//        0    4 magic        0x464E4B53 ("SKNF" as little-endian bytes)
//        4    1 version      kFrameVersion (mismatch is a fatal error)
//        5    1 type         MessageType tag (PROTOCOL.md messages 1-4)
//        6    2 flags        reserved, must be zero
//        8    8 seq          per-direction monotonically increasing counter
//       16    8 payload_len  exact byte length of the payload that follows
//       24    8 checksum     XXH64 over header (checksum field zeroed) ++
//                            payload, seed kFrameChecksumSeed
//
// All integers little-endian, matching common/serial.h. The checksum covers
// the header, so a bit flip in type/seq/length is detected exactly like a
// payload flip. Integrity only — not authentication (DESIGN.md §8).

namespace sknn {
namespace net {

// Wire tags for the protocol messages of PROTOCOL.md. kOpaque tags frames
// without protocol meaning (tests); kControl carries the handshake, the
// exchange preambles and Party A's query outcome line.
enum class MessageType : uint8_t {
  kOpaque = 0,
  kQuery = 1,       // message 1: client -> A encrypted query
  kDistances = 2,   // message 2: A -> B masked distance bundle
  kIndicators = 3,  // message 3: B -> A indicator ciphertexts
  kResults = 4,     // message 4: A -> client encrypted neighbours
  kControl = 5,
  kHeartbeat = 6,   // liveness probe on an idle A->B worker connection
};

const char* MessageTypeToString(MessageType type);

inline constexpr uint32_t kFrameMagic = 0x464E4B53u;  // "SKNF"
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 32;
inline constexpr uint64_t kFrameChecksumSeed = 0x6b6e6e2d66726d65ull;

struct Frame {
  MessageType type = MessageType::kOpaque;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

// Wraps `payload` in a frame envelope. Never fails.
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload);

// Parses and validates one frame. Error taxonomy:
//   kDataLoss           truncated header/payload, bad magic, length
//                       mismatch, checksum mismatch, unknown type, nonzero
//                       flags — transient (a retransmission can cure it).
//   kFailedPrecondition version mismatch — fatal (incompatible peers).
StatusOr<Frame> DecodeFrame(std::vector<uint8_t> bytes);

}  // namespace net
}  // namespace sknn

#endif  // SKNN_NET_FRAME_H_
