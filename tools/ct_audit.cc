// Dynamic constant-time audit (the ct-audit CI job): runs the dudect-style
// timing engine in src/common/ct_check.h over every verdict-relevant
// primitive, alongside positive controls that MUST be flagged for the run to
// count. Exit status is the gate:
//
//   required checks  -- ConstantTimeEqual, HmacSha256::Verify / Mac,
//                       DeriveSessionKey -- must show NO leak: their timing
//                       may not separate a correct secret from an
//                       adversarial one (first-byte difference, the
//                       early-exit worst case). OrProve must not separate
//                       a bit-0 opening from a bit-1 opening: a client's
//                       proving time may not reveal its private input.
//   positive controls -- a raw memcmp over 4 KiB and a branchy
//                       square-and-multiply -- must LEAK; if the machine is
//                       too noisy to flag a deliberate early-exit, a clean
//                       result on the required checks means nothing.
//   info checks       -- group exponentiation. The verifier only ever
//                       exponentiates public data (commitments, proof
//                       elements), and the bigint stack underneath is
//                       variable-time by design; reported for visibility,
//                       never gating.
//
// Each check gets several attempts and keeps the smallest |t|
// (RetryTimingAudit): a genuine leak reproduces on every attempt, while a
// scheduler burst that fakes one does not.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ct_check.h"
#include "src/common/hmac.h"
#include "src/common/rng.h"
#include "src/group/modp_group.h"
#include "src/net/auth.h"
#include "src/sigma/or_proof.h"

namespace vdp {
namespace {

enum class CheckKind { kRequiredConstantTime, kPositiveControl, kInfoOnly };

struct CheckSpec {
  std::string name;
  CheckKind kind;
  std::function<void(bool adversarial)> op;
};

// Keeps the optimizer from deleting a result the timing depends on.
template <typename T>
void Consume(const T& value) {
  CtCompilerBarrier(&value);
}

// The secret input of a check whose two classes differ only in its bytes.
// Load() rewrites one buffer from the same two sources in both classes, so
// the op touches the same addresses either way and only the values differ.
// Two per-class buffers would let their placement in memory (a cache-line
// split, say), not the code under test, separate the classes.
class ClassInput {
 public:
  ClassInput(const Bytes& fixed, const Bytes& adversarial)
      : fixed_(fixed), flip_(fixed.size()), live_(fixed) {
    for (size_t i = 0; i < fixed_.size(); ++i) {
      flip_[i] = static_cast<uint8_t>(fixed_[i] ^ adversarial[i]);
    }
    CtPoison(live_.data(), live_.size());
  }

  const Bytes& Load(bool adversarial) {
    // Opaque, so the compiler cannot split the loop into one per class.
    const uint8_t mask = CtOpaque(static_cast<uint8_t>(0u - uint8_t{adversarial}));
    for (size_t i = 0; i < live_.size(); ++i) {
      live_[i] = static_cast<uint8_t>(fixed_[i] ^ (flip_[i] & mask));
    }
    return live_;
  }

 private:
  Bytes fixed_;
  Bytes flip_;  // fixed ^ adversarial
  Bytes live_;
};

std::vector<CheckSpec> BuildChecks() {
  std::vector<CheckSpec> checks;
  SecureRng rng("ct-audit-inputs");

  // -- required: the comparison every MAC/digest verdict routes through.
  // Both classes compare against one probe buffer whose byte 0 the op
  // stores per class (one buffer for the reason ClassInput gives): equal,
  // or a first-byte difference, the early-exit worst case for a naive
  // compare.
  {
    auto secret = std::make_shared<Bytes>(rng.RandomBytes(32));
    auto probe = std::make_shared<Bytes>(*secret);
    const uint8_t first = (*secret)[0];
    CtPoison(secret->data(), secret->size());
    checks.push_back({"ConstantTimeEqual/32B", CheckKind::kRequiredConstantTime,
                      [=](bool adversarial) {
                        (*probe)[0] = static_cast<uint8_t>(first ^ uint8_t{adversarial});
                        bool ok = ConstantTimeEqual(*secret, *probe);
                        CtUnpoison(&ok, sizeof(ok));
                        Consume(ok);
                      }});
  }

  // -- required: full HMAC verification path (tag recompute + CT compare),
  // with the expected tag's byte 0 stored per class the same way.
  {
    auto key = std::make_shared<Bytes>(rng.RandomBytes(32));
    auto msg = std::make_shared<Bytes>(rng.RandomBytes(256));
    auto expected = std::make_shared<HmacSha256::Tag>(HmacSha256::Mac(*key, *msg));
    const uint8_t first = (*expected)[0];
    CtPoison(key->data(), key->size());
    checks.push_back({"HmacSha256::Verify", CheckKind::kRequiredConstantTime,
                      [=](bool adversarial) {
                        (*expected)[0] = static_cast<uint8_t>(first ^ uint8_t{adversarial});
                        bool ok = HmacSha256::Verify(*expected, HmacSha256::Mac(*key, *msg));
                        CtUnpoison(&ok, sizeof(ok));
                        Consume(ok);
                      }});
  }

  // -- required: MAC computation must not branch on key bytes.
  {
    // Random key vs the degenerate all-zero key.
    auto key = std::make_shared<ClassInput>(rng.RandomBytes(32), Bytes(32, 0x00));
    auto msg = std::make_shared<Bytes>(rng.RandomBytes(256));
    checks.push_back({"HmacSha256::Mac/key-classes", CheckKind::kRequiredConstantTime,
                      [=](bool adversarial) {
                        Consume(HmacSha256::Mac(key->Load(adversarial), *msg));
                      }});
  }

  // -- required: session-key derivation over the fleet's pre-shared secret.
  {
    // Random secret vs the all-ones secret.
    auto secret = std::make_shared<ClassInput>(rng.RandomBytes(32), Bytes(32, 0xFF));
    auto server_nonce = std::make_shared<Bytes>(rng.RandomBytes(16));
    auto client_nonce = std::make_shared<Bytes>(rng.RandomBytes(16));
    checks.push_back({"net::DeriveSessionKey", CheckKind::kRequiredConstantTime,
                      [=](bool adversarial) {
                        Consume(net::DeriveSessionKey(secret->Load(adversarial),
                                                      *server_nonce, *client_nonce));
                      }});
  }

  // -- required: the client's OR prover must not time its secret bit. Both
  // classes prove a fresh commitment (from a pre-built ring, so commitment
  // cost stays outside the op) with fresh proof randomness; only the bit
  // differs.
  {
    using G = ModP256;
    struct Opening {
      G::Element c;
      G::Scalar r;
    };
    constexpr size_t kRing = 256;
    auto ped = std::make_shared<Pedersen<G>>();
    auto openings = std::make_shared<std::vector<Opening>>();
    for (size_t i = 0; i < 2 * kRing; ++i) {
      const G::Scalar r = G::Scalar::Random(rng);
      openings->push_back({ped->Commit(G::Scalar::FromU64(i % 2), r), r});
    }
    auto proof_rng = std::make_shared<SecureRng>("ct-audit-or-prove");
    auto next = std::make_shared<size_t>(0);
    checks.push_back({"OrProve/secret-bit", CheckKind::kRequiredConstantTime,
                      [=](bool adversarial) {
                        const int bit = adversarial ? 1 : 0;
                        const Opening& o =
                            (*openings)[2 * ((*next)++ % kRing) + static_cast<size_t>(bit)];
                        Consume(OrProve(*ped, o.c, bit, o.r, *proof_rng, "ct-audit"));
                      }});
  }

  // -- positive control: memcmp's early exit over 4 KiB must be flagged.
  {
    auto base = std::make_shared<Bytes>(rng.RandomBytes(4096));
    auto equal = std::make_shared<Bytes>(*base);
    auto differs = std::make_shared<Bytes>(*base);
    (*differs)[0] ^= 0x01;
    checks.push_back({"control:memcmp/4KiB-early-exit", CheckKind::kPositiveControl,
                      [=](bool adversarial) {
                        const Bytes& probe = adversarial ? *differs : *equal;
                        int cmp = std::memcmp(base->data(), probe.data(),
                                              base->size());  // vdp-lint: allow(ct-compare)
                        Consume(cmp);
                      }});
  }

  // -- positive control: branchy square-and-multiply over a secret exponent.
  {
    checks.push_back({"control:branchy-square-and-multiply",
                      CheckKind::kPositiveControl, [](bool adversarial) {
                        const uint64_t exponent =
                            adversarial ? 0xFFFFFFFFFFFFFFFFull : 0ull;
                        uint64_t acc = CtOpaque(3);
                        uint64_t base = CtOpaque(7);
                        for (int bit = 0; bit < 64; ++bit) {
                          acc *= acc;
                          if ((exponent >> bit) & 1ull) {  // the leak under test
                            for (int k = 0; k < 16; ++k) {
                              acc = acc * base + CtOpaque(1);
                            }
                          }
                        }
                        Consume(acc);
                      }});
  }

  // -- info: group exponentiation (public-data operands in the verifier).
  {
    using G = ModP256;
    auto fixed_scalar = std::make_shared<G::Scalar>(G::Scalar::Random(rng));
    auto one = std::make_shared<G::Scalar>(G::Scalar::One());
    checks.push_back({"info:ModP256::ExpG/scalar-classes", CheckKind::kInfoOnly,
                      [=](bool adversarial) {
                        const G::Scalar& s = adversarial ? *one : *fixed_scalar;
                        Consume(G::ExpG(s));
                      }});
  }

  return checks;
}

const char* KindLabel(CheckKind kind) {
  switch (kind) {
    case CheckKind::kRequiredConstantTime:
      return "required";
    case CheckKind::kPositiveControl:
      return "control ";
    case CheckKind::kInfoOnly:
      return "info    ";
  }
  return "?";
}

}  // namespace
}  // namespace vdp

int main(int argc, char** argv) {
  using namespace vdp;
  TimingAuditOptions options;
  int attempts = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--samples" && i + 1 < argc) {
      options.samples_per_class = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--attempts" && i + 1 < argc) {
      attempts = std::stoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: ct_audit [--samples N] [--attempts N]\n");
      return 2;
    }
  }

  bool failed = false;
  std::printf("ct_audit: %zu samples/class, %d attempt(s), |t| threshold 10\n",
              options.samples_per_class, attempts);
  for (const CheckSpec& check : BuildChecks()) {
    const double t_stat = RetryTimingAudit(
        [&check, &options] { return RunTimingAudit(check.op, options).t_stat; }, attempts,
        /*want_leak=*/check.kind == CheckKind::kPositiveControl);
    const bool leaks = std::fabs(t_stat) > 10.0;
    bool ok = true;
    if (check.kind == CheckKind::kRequiredConstantTime) {
      ok = !leaks;
    } else if (check.kind == CheckKind::kPositiveControl) {
      ok = leaks;
    }
    failed = failed || !ok;
    std::printf("  [%s] %-40s t=%+9.2f  %s\n", KindLabel(check.kind),
                check.name.c_str(), t_stat,
                check.kind == CheckKind::kInfoOnly ? (leaks ? "variable-time (expected)"
                                                            : "no separation")
                : ok                               ? "ok"
                                                   : "FAIL");
  }
  if (failed) {
    std::printf("ct_audit: FAIL\n");
    return 1;
  }
  std::printf("ct_audit: PASS\n");
  return 0;
}
