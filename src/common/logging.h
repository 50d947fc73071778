/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * `fatal` reports a user error (bad configuration or arguments);
 * `panic` terminates because of an internal invariant violation (a
 * Spindle bug); `warn`/`inform` print status without stopping the
 * run.
 *
 * By default both `fatal` and `panic` terminate the process — right
 * for a CLI tool, lethal for a multi-tenant service where one bad
 * request must not take down every other tenant. A thread may
 * therefore opt into *recoverable* user errors by holding a
 * RecoverableScope: while one is active on the calling thread,
 * `fatal()` throws RecoverableError instead of exiting, and the
 * scope's creator (e.g. the PlanService request boundary) catches it
 * and turns it into a structured error result. `panic()` always
 * aborts — an invariant violation means in-process state can no
 * longer be trusted, recoverable scope or not.
 */

#ifndef SPINDLE_COMMON_LOGGING_H
#define SPINDLE_COMMON_LOGGING_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace spindle {

/**
 * A user error reported by fatal() on a thread that holds a
 * RecoverableScope. what() carries the fatal message verbatim.
 */
class RecoverableError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII opt-in to recoverable user errors on the current thread (see
 * the file comment). Nestable; the outermost destructor restores the
 * default terminate-on-fatal behavior. Scopes are thread-local: a
 * scope on a service worker never changes how fatals behave on other
 * threads, so code that spawns its own workers (the planner's
 * ThreadPool regions) keeps the historical process-exit contract
 * unless each worker opts in itself.
 */
class RecoverableScope
{
  public:
    RecoverableScope();
    ~RecoverableScope();

    RecoverableScope(const RecoverableScope &) = delete;
    RecoverableScope &operator=(const RecoverableScope &) = delete;

    /** True iff the calling thread is inside some RecoverableScope. */
    static bool active();

  private:
    bool prev_;
};

/**
 * Report a user-caused error: throws RecoverableError when the
 * calling thread holds a RecoverableScope, otherwise terminates with
 * exit(1). Never returns either way.
 */
[[noreturn]] void fatal(const std::string &msg);

/** Terminate with abort(); use for internal invariant violations.
 *  Deliberately NOT recoverable (see the file comment). */
[[noreturn]] void panic(const std::string &msg);

/** Print a non-fatal warning to stderr. */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    formatInto(os, rest...);
}

} // namespace detail

/** Build a message from stream-insertable pieces. */
template <typename... Args>
std::string
strCat(const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    return os.str();
}

/**
 * Check a caller-supplied condition; fatal() on failure.
 *
 * The message is given as stream-insertable pieces and formatted with
 * strCat() only when the check fires. Pass the pieces, never a
 * prebuilt strCat(...): an argument is evaluated on every call, and
 * checks sit on per-device and per-reservation paths where building
 * an ostringstream and a heap string each time a check passes costs
 * more than the work it guards. scripts/check_lazy_checks.py rejects
 * the eager form in src/. A single std::string argument still works.
 *
 * @param cond condition expected to hold
 * @param msg pieces of the message describing the user error
 */
template <typename... Args>
inline void
fatalIf(bool cond, const Args &...msg)
{
    if (cond) [[unlikely]]
        fatal(strCat(msg...));
}

/**
 * Check an internal invariant; panic() on failure. Takes the message
 * as lazily formatted pieces, like fatalIf().
 */
template <typename... Args>
inline void
panicIf(bool cond, const Args &...msg)
{
    if (cond) [[unlikely]]
        panic(strCat(msg...));
}

} // namespace spindle

#endif // SPINDLE_COMMON_LOGGING_H
