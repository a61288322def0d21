#include "sim/logging.hh"

#include <atomic>
#include <cstdio>

namespace hwdp {

namespace {
std::atomic<bool> quietFlag{false};
} // namespace

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

namespace detail {

void
logMessage(const char *prefix, const std::string &msg)
{
    // Errors always print; chatter respects the quiet flag.
    bool is_error = prefix[0] == 'p' || prefix[0] == 'f';
    if (quietFlag && !is_error)
        return;
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // namespace detail
} // namespace hwdp
