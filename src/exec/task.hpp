/**
 * @file
 * Minimal lazy coroutine task for simulated-thread code.
 *
 * Transaction bodies and their helper subroutines are Task<T>
 * coroutines. A Task starts suspended; awaiting it starts the child and
 * resumes the parent via symmetric transfer when the child finishes.
 * The whole chain suspends when the innermost frame awaits a memory
 * operation, returning control to the simulation loop.
 *
 * Abort-by-destruction: destroying the outermost Task of a transaction
 * attempt destroys every nested frame (each parent frame owns its
 * children's Task objects), which is how the execution layer discards
 * an aborted attempt without unwinding code paths inside workloads.
 */

#ifndef RETCON_EXEC_TASK_HPP
#define RETCON_EXEC_TASK_HPP

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/logging.hpp"

namespace retcon::exec {

namespace detail {

struct TaskPromiseBase {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
        bool await_ready() noexcept { return false; }

        template <typename P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h) noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    void
    unhandled_exception()
    {
        exception = std::current_exception();
    }
};

/** A Task<T>'s result slot: return_value for T, return_void for void. */
template <typename T>
struct TaskResult {
    std::optional<T> value;

    void
    return_value(T v)
    {
        value = std::move(v);
    }
};

template <>
struct TaskResult<void> {
    void return_void() {}
};

} // namespace detail

/** Lazy, single-awaiter coroutine task. */
template <typename T>
class Task
{
  public:
    struct promise_type : detail::TaskPromiseBase, detail::TaskResult<T> {
        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : _h(h) {}

    Task(Task &&o) noexcept : _h(std::exchange(o._h, {})) {}

    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            _h = std::exchange(o._h, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** Start the coroutine with no continuation (driven externally). */
    void
    start()
    {
        sim_assert(_h && !_h.done(), "starting an invalid task");
        _h.resume();
    }

    bool done() const { return _h && _h.done(); }

    /** Retrieve the result after completion (rethrows exceptions). */
    T
    result()
    {
        sim_assert(done(), "task result before completion");
        return await_resume();
    }

    // Awaiter protocol: awaiting a task starts it.
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        _h.promise().continuation = cont;
        return _h;
    }

    T
    await_resume()
    {
        if (_h.promise().exception)
            std::rethrow_exception(_h.promise().exception);
        if constexpr (!std::is_void_v<T>)
            return std::move(*_h.promise().value);
    }

  private:
    std::coroutine_handle<promise_type> _h;

    void
    destroy()
    {
        if (_h) {
            _h.destroy();
            _h = {};
        }
    }
};

} // namespace retcon::exec

#endif // RETCON_EXEC_TASK_HPP
