#include "bgv/serialization.h"

namespace sknn {
namespace bgv {
namespace {

void WriteKSwitchKey(const KSwitchKey& k, ByteSink* sink) {
  sink->WriteU64(k.digits.size());
  for (const auto& [b, a] : k.digits) {
    WriteRnsPoly(b, sink);
    WriteRnsPoly(a, sink);
  }
}

}  // namespace

void WriteRnsPoly(const RnsPoly& p, ByteSink* sink) {
  sink->WriteU64(p.n());
  sink->WriteU8(p.ntt_form() ? 1 : 0);
  sink->WriteU64(p.num_components());
  for (size_t i = 0; i < p.num_components(); ++i) {
    sink->WriteU64Span(p.comp(i), p.n());
  }
}

StatusOr<RnsPoly> ReadRnsPoly(ByteSource* src) {
  SKNN_ASSIGN_OR_RETURN(uint64_t n, src->ReadU64());
  SKNN_ASSIGN_OR_RETURN(uint8_t ntt, src->ReadU8());
  SKNN_ASSIGN_OR_RETURN(uint64_t comps, src->ReadU64());
  if (comps > 64) return OutOfRangeError("implausible RNS component count");
  if (n > (uint64_t{1} << 20)) {
    return OutOfRangeError("implausible ring degree");
  }
  // The body is comps*n u64 coefficients. A plausible-looking (n, comps)
  // header on a short buffer must not be allowed to allocate up to 512 MB
  // before the span reads fail: bound the allocation by the bytes actually
  // present (giant-allocation DoS hardening; the plausibility checks above
  // keep the multiplication far from uint64 overflow).
  const uint64_t body_bytes = comps * n * 8;
  if (body_bytes > src->remaining()) {
    return OutOfRangeError(
        "RNS poly header promises " + std::to_string(body_bytes) +
        " coefficient bytes but only " + std::to_string(src->remaining()) +
        " remain in the buffer");
  }
  RnsPoly p(static_cast<size_t>(n), static_cast<size_t>(comps), ntt != 0);
  for (uint64_t i = 0; i < comps; ++i) {
    SKNN_RETURN_IF_ERROR(
        src->ReadU64Span(p.comp(static_cast<size_t>(i)), p.n()));
  }
  return p;
}

void WriteCiphertext(const Ciphertext& ct, ByteSink* sink) {
  sink->WriteU64(ct.level);
  sink->WriteU64(ct.scale);
  sink->WriteU64(ct.size());
  for (const RnsPoly& p : ct.c) WriteRnsPoly(p, sink);
}

StatusOr<Ciphertext> ReadCiphertext(ByteSource* src) {
  Ciphertext ct;
  SKNN_ASSIGN_OR_RETURN(uint64_t level, src->ReadU64());
  ct.level = static_cast<size_t>(level);
  SKNN_ASSIGN_OR_RETURN(ct.scale, src->ReadU64());
  SKNN_ASSIGN_OR_RETURN(uint64_t size, src->ReadU64());
  if (size < 2 || size > 3) return OutOfRangeError("bad ciphertext size");
  for (uint64_t i = 0; i < size; ++i) {
    SKNN_ASSIGN_OR_RETURN(RnsPoly p, ReadRnsPoly(src));
    ct.c.push_back(std::move(p));
  }
  return ct;
}

void WritePublicKey(const PublicKey& pk, ByteSink* sink) {
  WriteRnsPoly(pk.b, sink);
  WriteRnsPoly(pk.a, sink);
}

void WriteSecretKey(const SecretKey& sk, ByteSink* sink) {
  WriteRnsPoly(sk.s_ntt, sink);
  WriteRnsPoly(sk.s_coeff, sink);
}

void WriteRelinKeys(const RelinKeys& rk, ByteSink* sink) {
  WriteKSwitchKey(rk.key, sink);
}

void WriteGaloisKeys(const GaloisKeys& gk, ByteSink* sink) {
  sink->WriteU64(gk.keys.size());
  for (const auto& [elt, key] : gk.keys) {
    sink->WriteU64(elt);
    WriteKSwitchKey(key, sink);
  }
}

}  // namespace bgv
}  // namespace sknn
