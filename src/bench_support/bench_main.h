#ifndef HOLIM_BENCH_SUPPORT_BENCH_MAIN_H_
#define HOLIM_BENCH_SUPPORT_BENCH_MAIN_H_

#include <functional>
#include <string>

#include "bench_support/experiment.h"

namespace holim {

/// StatusCode -> process exit code, one distinct nonzero code per error
/// kind so scripts can branch on the failure class without parsing stderr:
///   0 OK                    5 kIOError            9 kDeadlineExceeded
///   2 kInvalidArgument      6 kAlreadyExists     10 kCancelled
///   3 kOutOfRange           7 kUnimplemented     11 kResourceExhausted
///   4 kNotFound             8 kInternal
/// (1 is reserved as the legacy catch-all and never produced by a typed
/// Status.)
int ExitCodeForStatus(const Status& status);

/// Uniform entry point for figure/table binaries: parses flags (declaring
/// the common set), prints --help on stdout, prints `description` as a
/// banner on stderr, runs `body`, and converts a non-OK Status into the
/// message on stderr plus ExitCodeForStatus's exit code.
int BenchMain(int argc, char** argv, const std::string& description,
              const std::function<Status(const BenchArgs&)>& body,
              const std::function<void(BenchArgs*)>& declare_extra = nullptr);

}  // namespace holim

#endif  // HOLIM_BENCH_SUPPORT_BENCH_MAIN_H_
