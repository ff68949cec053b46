#include "fleet/worker.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "campaign/runner.hh"
#include "fleet/wire.hh"

namespace mcversi::fleet {

namespace {

volatile std::sig_atomic_t g_stopRequested = 0;

void
onTerm(int)
{
    g_stopRequested = 1;
}

bool
readAll(int fd, void *data, std::size_t size)
{
    auto *bytes = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, bytes + got, size - got);
        if (n < 0) {
            if (errno == EINTR) {
                if (g_stopRequested)
                    return false;
                continue;
            }
            return false;
        }
        if (n == 0)
            return false; // EOF: coordinator closed the request pipe.
        got += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeAll(int fd, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const char *>(data);
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::write(fd, bytes + written, size - written);
        if (n < 0) {
            if (errno == EINTR && !g_stopRequested)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Test hook: MCVERSI_FLEET_TEST_HANG_CELL=<i> makes every attempt on
 * cell i hang forever (until the coordinator's cell-timeout kill);
 * MCVERSI_FLEET_TEST_HANG_MAX_ATTEMPT=<k> limits the hang to attempts
 * <= k so retry-then-succeed paths are testable. The fleet's
 * robustness tests set these, and CI's kill+resume gate sets the first
 * so its run is still going when a worker is killed and the
 * coordinator interrupted.
 */
bool
testHookShouldHang(std::uint32_t cell, std::uint32_t attempt)
{
    const char *hang = std::getenv("MCVERSI_FLEET_TEST_HANG_CELL");
    if (hang == nullptr || std::strtoul(hang, nullptr, 10) != cell)
        return false;
    const char *max_attempt =
        std::getenv("MCVERSI_FLEET_TEST_HANG_MAX_ATTEMPT");
    if (max_attempt != nullptr &&
        attempt > std::strtoul(max_attempt, nullptr, 10)) {
        return false;
    }
    return true;
}

} // namespace

int
runWorkerLoop(const WorkerConfig &config,
              const std::vector<campaign::CampaignSpec> &specs)
{
    // SIGTERM requests a clean drain; SIGINT is the coordinator's
    // signal (a terminal Ctrl-C reaches the whole process group, and
    // the coordinator shuts its workers down itself).
    struct sigaction sa{};
    sa.sa_handler = onTerm;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::signal(SIGINT, SIG_IGN);
    ::signal(SIGPIPE, SIG_IGN);

    for (;;) {
        std::uint32_t frame[2];
        if (!readAll(config.requestFd, frame, sizeof(frame)))
            return g_stopRequested ? 0 : 0;
        const std::uint32_t cell = frame[0];
        const std::uint32_t attempt = frame[1];
        if (cell >= specs.size()) {
            std::fprintf(stderr,
                         "fleet worker: cell index %u out of range "
                         "(%zu cells)\n",
                         cell, specs.size());
            return 2;
        }
        if (testHookShouldHang(cell, attempt)) {
            std::fprintf(stderr,
                         "fleet worker: test hook hanging on cell %u "
                         "attempt %u\n",
                         cell, attempt);
            std::fflush(stderr);
            for (;;)
                ::pause();
        }

        CellRecord record;
        record.cell = cell;
        record.attempt = attempt;
        record.spec = specs[cell].toString();
        record.result = campaign::CampaignRunner::runOne(
            specs[cell], config.evalThreads,
            []() { return g_stopRequested != 0; });
        if (g_stopRequested) {
            // The campaign was cut short by SIGTERM: the result is
            // partial, so it must never reach the journal.
            return 0;
        }
        const std::string payload = encodeCell(record);
        const std::uint32_t length =
            static_cast<std::uint32_t>(payload.size());
        if (!writeAll(config.responseFd, &length, sizeof(length)) ||
            !writeAll(config.responseFd, payload.data(),
                      payload.size())) {
            return g_stopRequested ? 0 : 3;
        }
    }
}

} // namespace mcversi::fleet
