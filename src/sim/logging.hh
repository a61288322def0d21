/**
 * @file
 * Status and error reporting in the gem5 idiom.
 *
 * panic()  - a simulator bug: a condition that must never happen
 *            regardless of user input. Aborts.
 * fatal()  - a user error (bad configuration, impossible parameters).
 *            Exits with an error code.
 * warn()   - functionality that may not behave as the user expects.
 * inform() - plain status output.
 */

#ifndef HWDP_SIM_LOGGING_HH
#define HWDP_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace hwdp {

/** Thrown by panic(); tests catch it to exercise failure paths. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(); carries a user-actionable message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

void logMessage(const char *prefix, const std::string &msg);

inline void
format(std::ostringstream &)
{
}

template <typename T, typename... Args>
void
format(std::ostringstream &os, const T &head, const Args &...tail)
{
    os << head;
    format(os, tail...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    format(os, args...);
    return os.str();
}

} // namespace detail

/** Report a simulator bug and abort via exception. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::string msg = detail::concat(args...);
    detail::logMessage("panic", msg);
    throw PanicError(msg);
}

/** Report a user error and terminate via exception. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::string msg = detail::concat(args...);
    detail::logMessage("fatal", msg);
    throw FatalError(msg);
}

/** Warn about behaviour that might surprise the user. */
template <typename... Args>
void
warn(const Args &...args)
{
    detail::logMessage("warn", detail::concat(args...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(const Args &...args)
{
    detail::logMessage("info", detail::concat(args...));
}

/** Globally silence warn()/inform() (benches use this). */
void setQuiet(bool quiet);

} // namespace hwdp

#endif // HWDP_SIM_LOGGING_HH
