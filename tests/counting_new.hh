/**
 * @file
 * Counting replacements of the global operator new/delete, for the
 * allocation-free tests.
 *
 * Include from the one source file of a test binary: the replacements
 * are ordinary definitions. g_allocs counts every operator new call.
 * MCVERSI_ZERO_ALLOC_SKIP is defined under ASan/UBSan, where the
 * sanitizer runtime interposes and allocates on its own schedule, so
 * the counter is not meaningful and the tests skip.
 */

#ifndef MCVERSI_TESTS_COUNTING_NEW_HH
#define MCVERSI_TESTS_COUNTING_NEW_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define MCVERSI_ZERO_ALLOC_SKIP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCVERSI_ZERO_ALLOC_SKIP 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// The replacements stay out of line: inlined into a caller, GCC pairs
// the std::free below with the caller's operator new and warns
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms are replaced too, so that every new and delete of a
// block goes through this file's malloc/free pair. std::stable_sort
// takes its temporary buffer from the nothrow new; left to the
// sanitizer runtime, that block would come back through the sized
// delete below and ASan would abort with alloc-dealloc-mismatch.
[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // MCVERSI_TESTS_COUNTING_NEW_HH
