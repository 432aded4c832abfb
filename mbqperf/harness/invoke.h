// Timed calls into the engine surface, and the check of their answers
// against the oracle. Only the engine method itself is inside the timed
// region; converting and fingerprinting rows happen outside it.
#ifndef MBQPERF_INVOKE_H_
#define MBQPERF_INVOKE_H_

#include <cstdint>
#include <string>

#include "calls.h"
#include "core/engine.h"
#include "oracle.h"

namespace mbqperf {

struct Timed {
  mbq::Status status;
  mbq::core::ValueRows rows;  // Q6.1: one row holding the length
  uint64_t nanos = 0;
};

/// Runs a read on `engine`, inside a span "<label>.<query>" when tracing.
Timed InvokeRead(mbq::core::MicroblogEngine& engine, const Call& call,
                 const char* label);
/// Runs a live write.
Timed InvokeWrite(mbq::core::WritableEngine& writer, const Call& call);

/// The fingerprint Fingerprint(Answer) would give for `rows`. Integers
/// at or above `fresh_from` count as kFresh: pass the first live tweet id
/// for Q2.2, whose rows are tweet ids, and INT64_MAX otherwise. Rows holding a
/// value that is neither an integer nor a string never match.
uint64_t FingerprintRows(const mbq::core::ValueRows& rows, bool ordered,
                         int64_t fresh_from);

/// Empty when `got` matches `want`; else a message naming the call.
std::string CheckAnswer(const Call& call, const Answer& want,
                        uint64_t want_fingerprint,
                        const mbq::core::ValueRows& got, int64_t fresh_from);

}  // namespace mbqperf

#endif  // MBQPERF_INVOKE_H_
