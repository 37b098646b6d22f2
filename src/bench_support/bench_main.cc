#include "bench_support/bench_main.h"

#include <cstdio>

namespace holim {

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kOutOfRange:
      return 3;
    case StatusCode::kNotFound:
      return 4;
    case StatusCode::kIOError:
      return 5;
    case StatusCode::kAlreadyExists:
      return 6;
    case StatusCode::kUnimplemented:
      return 7;
    case StatusCode::kInternal:
      return 8;
    case StatusCode::kDeadlineExceeded:
      return 9;
    case StatusCode::kCancelled:
      return 10;
    case StatusCode::kResourceExhausted:
      return 11;
  }
  return 1;  // unreachable for in-enum codes; safety net for corruption
}

int BenchMain(int argc, char** argv, const std::string& description,
              const std::function<Status(const BenchArgs&)>& body,
              const std::function<void(BenchArgs*)>& declare_extra) {
  BenchArgs args;
  DeclareCommonFlags(&args);
  if (declare_extra) declare_extra(&args);
  Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 args.HelpText(argv[0]).c_str());
    return ExitCodeForStatus(st);
  }
  if (args.GetBool("help", false)) {
    std::printf("%s\n%s", description.c_str(),
                args.HelpText(argv[0]).c_str());
    return 0;
  }
  // stdout carries only what the body prints: holimd's pipe mode answers
  // in protocol lines alone.
  std::fprintf(stderr, "%s\n", description.c_str());
  st = body(args);
  if (!st.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", st.ToString().c_str());
    return ExitCodeForStatus(st);
  }
  return 0;
}

}  // namespace holim
