/**
 * @file
 * `ServiceClient`: the C++ client for a running sparseloopd
 * (service/server.hh). Blocking, one request in flight per client;
 * for concurrency, open one client per thread — the daemon
 * multiplexes them onto the shared cache.
 *
 * Every RPC sends one frame and reads exactly one response frame. A
 * `kError` response surfaces as a thrown `ServiceError` carrying the
 * daemon's message; transport failures (refused connection, dropped
 * stream) throw the same type.
 *
 * Quickstart:
 * @code
 *   ServiceClient client;
 *   client.connect("127.0.0.1", port);
 *   std::vector<EvalResult> results =
 *       client.evaluateBatch("bitmask", mappings);
 *   SearchReply best = client.search("bitmask", {});
 *   CacheStatsReply stats = client.cacheStats();
 *   client.shutdownServer();   // asks the daemon to exit
 * @endcode
 */

#ifndef SPARSELOOP_SERVICE_CLIENT_HH
#define SPARSELOOP_SERVICE_CLIENT_HH

#include "service/protocol.hh"
#include "service/server.hh"

namespace sparseloop {

/** Client-side search options (maps onto `SearchRequest`). */
struct ClientSearchOptions
{
    std::uint32_t samples = 2000;
    std::uint64_t seed = 0xC0FFEE;
    SearchStrategyKind strategy = SearchStrategyKind::Auto;
    std::uint32_t batch_size = 256;
    std::uint32_t threads = 1;
    bool use_warm_start = false;
};

class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;
    ServiceClient(ServiceClient &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    ServiceClient &operator=(ServiceClient &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    /** Connect to a daemon; throws `ServiceError` on failure. */
    void connect(const std::string &host, int port);
    bool connected() const { return fd_ >= 0; }
    void close();

    /** Round-trip a no-op frame (liveness check). */
    void ping();

    /** The daemon's registered context names. */
    std::vector<std::string> listContexts();

    /**
     * Evaluate @p mappings against context @p context. One result per
     * mapping, request order, bit-identical to a local
     * `BatchEvaluator::evaluateMappings` on the same design.
     * @param reply_stats optional: full reply incl. batch accounting.
     */
    std::vector<EvalResult>
    evaluateBatch(const std::string &context,
                  const std::vector<Mapping> &mappings,
                  EvaluateBatchReply *reply_stats = nullptr);

    /** Run a mapspace search on the daemon. */
    SearchReply search(const std::string &context,
                       const ClientSearchOptions &options);

    /** Daemon-wide cache/pool counters. */
    CacheStatsReply cacheStats();

    /** Ask the daemon to stop serving (acknowledged before it does). */
    void shutdownServer();

  private:
    /** Send one encoded frame, read one response; throws
     *  ServiceError on a kError reply or any transport failure. */
    std::pair<FrameType, std::vector<std::uint8_t>>
    roundTrip(const std::vector<std::uint8_t> &frame);

    /** roundTrip that insists on @p expected. */
    std::vector<std::uint8_t>
    expect(const std::vector<std::uint8_t> &frame, FrameType expected);

    int fd_ = -1;
};

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_CLIENT_HH
