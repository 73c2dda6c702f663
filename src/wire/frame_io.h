// Blocking frame transport over POSIX file descriptors (the src/net/
// socket transport and any pipe): writes whole frames, reads whole frames
// under a deadline, and classifies every failure so the fleet driver can
// blame the right party (peer died vs. emitted garbage vs. timed out).
//
// Signal-safety contract: poll(2)/read(2)/write(2) interrupted by a signal
// (EINTR) are retried under the same deadline -- a signal landing on the
// driver (sanitizer timers, profilers, SIGCHLD) must never be classified as
// a peer failure. Pinned by tests/wire/frame_io_eintr_test.cc.
#ifndef SRC_WIRE_FRAME_IO_H_
#define SRC_WIRE_FRAME_IO_H_

#include <string>

#include "src/wire/wire_format.h"

namespace vdp {
namespace wire {

enum class ReadStatus {
  kOk,            // a well-formed frame was read
  kEof,           // peer closed the stream at a frame boundary
  kTimeout,       // deadline expired before a complete frame arrived
  kVersionSkew,   // valid magic, but the peer speaks a different wire version
  kMalformed,     // bytes arrived but are not a valid frame
  kError,         // read(2)/poll(2) failed
  kAuthFailed,    // frame arrived but its MAC did not verify (net::AuthChannel)
};

const char* ReadStatusName(ReadStatus status);

enum class WriteStatus {
  kOk,       // the whole frame is in the pipe
  kTimeout,  // deadline expired with the peer not draining the pipe
  kError,    // write(2)/poll(2) failed (EPIPE when the peer died --
             // callers must have SIGPIPE ignored, see net::IgnoreSigpipe)
};

// Writes the complete frame. timeout_ms < 0 blocks indefinitely. A deadline
// only takes effect on fds opened O_NONBLOCK (a connector socket, see
// src/net/socket.h); on a blocking fd a single write(2) can stall regardless
// of poll.
WriteStatus WriteFrame(int fd, FrameType type, BytesView payload, int timeout_ms = -1);

// Reads exactly one frame. timeout_ms < 0 blocks indefinitely; the deadline
// covers the whole frame, not each read(2). kEof is returned only for a
// clean close between frames; a close mid-frame is kMalformed.
ReadStatus ReadFrame(int fd, Frame* out, int timeout_ms);

}  // namespace wire
}  // namespace vdp

#endif  // SRC_WIRE_FRAME_IO_H_
