#include "net/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <string_view>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/term_codec.hh"
#include "support/logging.hh"

namespace clare::net {

namespace {

constexpr std::string_view kWireSite = "wire.conn";

} // namespace

NetServer::NetServer(term::SymbolTable &symbols,
                     const crs::PredicateStore &store,
                     crs::ClauseRetrievalServer &server,
                     NetServerConfig config)
    : symbols_(symbols),
      store_(store),
      server_(server),
      config_(config),
      listener_(config.port)
{
    int efd = ::epoll_create1(0);
    if (efd < 0)
        throw IoError("server", "epoll_create1 failed");
    epollFd_ = OwnedFd(efd);
    int wfd = ::eventfd(0, EFD_NONBLOCK);
    if (wfd < 0)
        throw IoError("server", "eventfd failed");
    wakeFd_ = OwnedFd(wfd);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listener_.fd();
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, listener_.fd(), &ev);
    ev.data.fd = wakeFd_.get();
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, wakeFd_.get(), &ev);
}

NetServer::~NetServer()
{
    stop();
}

void
NetServer::start()
{
    if (running_.exchange(true))
        return;
    thread_ = std::thread([this] { run(); });
}

void
NetServer::stop()
{
    if (running_.exchange(false)) {
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakeFd_.get(), &one, sizeof(one));
    }
    if (thread_.joinable())
        thread_.join();
    connections_.clear();
}

void
NetServer::run()
{
    epoll_event events[64];
    while (running_.load()) {
        int n = ::epoll_wait(epollFd_.get(), events, 64, 200);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            if (fd == wakeFd_.get()) {
                std::uint64_t drained;
                [[maybe_unused]] ssize_t rd =
                    ::read(wakeFd_.get(), &drained, sizeof(drained));
                continue;
            }
            if (fd == listener_.fd()) {
                acceptPending();
                continue;
            }
            auto it = connections_.find(fd);
            if (it == connections_.end())
                continue;
            bool alive = true;
            if (events[i].events & (EPOLLHUP | EPOLLERR))
                alive = false;
            if (alive && (events[i].events & EPOLLIN))
                alive = readReady(it->second);
            // Re-find: readReady may have closed other fds? It does
            // not, but the map may rehash on accept; it cannot here.
            if (alive && (events[i].events & EPOLLOUT))
                alive = writeReady(it->second);
            if (!alive)
                closeConnection(fd);
        }
    }
}

void
NetServer::acceptPending()
{
    for (;;) {
        OwnedFd fd = listener_.accept();
        if (!fd.valid())
            return;
        if (connections_.size() >= config_.maxConnections) {
            // Shed at the door: one best-effort Error frame, close.
            ++server_.metrics().counter(
                "net.shed", "requests/connections shed by admission "
                            "control");
            std::vector<std::uint8_t> frame;
            encodeFrame(FrameType::Error,
                        encodeError(ErrorCode::Overloaded,
                                    "connection limit reached"),
                        frame);
            [[maybe_unused]] ssize_t n =
                ::send(fd.get(), frame.data(), frame.size(),
                       MSG_NOSIGNAL);
            continue;
        }
        ++server_.metrics().counter("net.accepted",
                                    "connections accepted");
        int raw = fd.get();
        Connection conn;
        conn.peer = "client:" + std::to_string(raw);
        conn.fd = std::move(fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = raw;
        ::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, raw, &ev);
        connections_.emplace(raw, std::move(conn));
    }
}

bool
NetServer::readReady(Connection &conn)
{
    for (;;) {
        std::size_t have = conn.inbound.size();
        if (have < conn.needed) {
            std::uint8_t buf[4096];
            std::size_t want =
                std::min(conn.needed - have, sizeof(buf));
            ssize_t n = ::recv(conn.fd.get(), buf, want, 0);
            if (n == 0)
                return false;
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return true;
                if (errno == EINTR)
                    continue;
                return false;
            }
            conn.inbound.insert(conn.inbound.end(), buf, buf + n);
            if (conn.inbound.size() < conn.needed)
                continue;
        }
        if (conn.readingHeader) {
            try {
                conn.header =
                    decodeFrameHeader(conn.inbound.data(), conn.peer);
            } catch (const CorruptionError &) {
                ++server_.metrics().counter(
                    "net.bad_frames",
                    "frames failing header/CRC validation");
                return false; // desync: the stream is unrecoverable
            }
            conn.readingHeader = false;
            conn.needed = conn.header.payloadBytes;
            conn.inbound.clear();
            if (conn.needed > 0)
                continue;
        }
        std::vector<std::uint8_t> payload = std::move(conn.inbound);
        conn.inbound = {};
        conn.readingHeader = true;
        conn.needed = kFrameHeaderBytes;
        try {
            verifyFramePayload(conn.header, payload.data(),
                               payload.size(), conn.peer);
        } catch (const CorruptionError &) {
            ++server_.metrics().counter(
                "net.bad_frames",
                "frames failing header/CRC validation");
            return false;
        }
        if (!dispatchFrame(conn, std::move(payload)))
            return false;
        if (conn.closing)
            return true; // keep fd until outbound drains
    }
}

bool
NetServer::dispatchFrame(Connection &conn,
                         std::vector<std::uint8_t> payload)
{
    bool keep = true;
    switch (conn.header.type) {
      case FrameType::Request:
        serveRequest(conn, payload);
        break;
      case FrameType::BatchRequest:
        serveBatchRequest(conn, payload);
        break;
      case FrameType::Health: {
        ++server_.metrics().counter("net.health_probes",
                                    "health probes answered");
        std::string body = healthJson().dump();
        std::vector<std::uint8_t> reply(body.begin(), body.end());
        if (!queueFrame(conn, FrameType::HealthReply, reply))
            keep = false;
        break;
      }
      case FrameType::Response:
      case FrameType::Error:
      case FrameType::HealthReply:
      case FrameType::BatchResponse:
        // Only a server sends these; a client that does is confused.
        ++server_.metrics().counter(
            "net.bad_frames", "frames failing header/CRC validation");
        return false;
    }
    if (!keep)
        return false;
    updateEpoll(conn);
    // A fault cut this connection mid-frame: close as soon as the
    // injected prefix has been flushed (now, if it already was).
    if (conn.closing)
        return conn.outboundAt < conn.outbound.size();
    return true;
}

void
NetServer::serveRequest(Connection &conn,
                        const std::vector<std::uint8_t> &payload)
{
    ++server_.metrics().counter("net.requests", "requests received");

    // Backpressure: a peer that stopped draining responses does not
    // get more of the pipeline's time (or this process's memory).
    if (conn.outbound.size() - conn.outboundAt >
        config_.maxOutboundBytes) {
        ++server_.metrics().counter(
            "net.shed",
            "requests/connections shed by admission control");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::Overloaded,
                               "outbound backlog limit reached"));
        return;
    }

    WireRequest &request = conn.requestScratch;
    try {
        decodeRequest(payload, conn.peer, request);
    } catch (const CorruptionError &e) {
        // The frame passed its CRC, so this is a sender bug, not wire
        // damage: answer it and keep the (still framed) connection.
        ++server_.metrics().counter("net.bad_requests",
                                    "requests failing validation");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest, e.what()));
        return;
    }

    // The goal decodes into the connection's reusable bump arena:
    // rewound here, allocation-free once the connection is warm.
    term::TermArena &arena = conn.arena;
    arena.reset();
    crs::RetrievalRequest local;
    try {
        local.goal = decodeGoal(request.goalPif, symbols_, arena,
                                conn.peer);
    } catch (const CorruptionError &e) {
        ++server_.metrics().counter("net.bad_requests",
                                    "requests failing validation");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest, e.what()));
        return;
    }
    if (term::predicateOf(arena, local.goal) != request.predicate) {
        ++server_.metrics().counter("net.bad_requests",
                                    "requests failing validation");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest,
                               "predicate field disagrees with the "
                               "goal"));
        return;
    }
    if (!store_.has(request.predicate)) {
        ++server_.metrics().counter("net.bad_requests",
                                    "requests failing validation");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest,
                               "unknown predicate"));
        return;
    }

    local.arena = &arena;
    local.mode = request.mode;
    local.bypassCache = request.bypassCache;
    try {
        crs::RetrievalResponse response = server_.serve(local);
        ++served_;
        ++server_.metrics().counter("net.responses",
                                    "responses served");
        if (response.replayBlob != nullptr) {
            // Warm L3 hit: the cache's pre-encoded blob travels
            // verbatim, only the request id is patched in flight.
            queueBlobFrame(conn, *response.replayBlob, request.id);
        } else {
            conn.payloadScratch.clear();
            encodeResponse(request.id, response, conn.payloadScratch);
            queueFrame(conn, FrameType::Response, conn.payloadScratch);
        }
    } catch (const Error &e) {
        ++server_.metrics().counter("net.serve_errors",
                                    "requests failing in the pipeline");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::Internal, e.what()));
    }
}

void
NetServer::serveBatchRequest(Connection &conn,
                             const std::vector<std::uint8_t> &payload)
{
    ++server_.metrics().counter("net.batches",
                                "batch requests received");

    if (conn.outbound.size() - conn.outboundAt >
        config_.maxOutboundBytes) {
        ++server_.metrics().counter(
            "net.shed",
            "requests/connections shed by admission control");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::Overloaded,
                               "outbound backlog limit reached"));
        return;
    }

    std::vector<std::vector<std::uint8_t>> items;
    try {
        items = decodeBatchItems(payload, conn.peer);
    } catch (const CorruptionError &e) {
        ++server_.metrics().counter("net.bad_requests",
                                    "requests failing validation");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::BadRequest, e.what()));
        return;
    }

    // Validate every item before serving any: a batch is one unit of
    // work, so one malformed item fails the frame with a typed error
    // instead of a partial answer.  Every goal decodes into the
    // connection's shared bump arena — one reset per batch, not one
    // arena per item.  Sharing is safe: each request walks only from
    // its own root TermRef, the canonical cache key renames variables,
    // and unification standardizes apart, so overlapping VarIds across
    // items never meet.
    term::TermArena &arena = conn.arena;
    arena.reset();
    std::vector<crs::RetrievalRequest> batch;
    std::vector<std::uint64_t> ids;
    batch.reserve(items.size());
    ids.reserve(items.size());
    for (const std::vector<std::uint8_t> &item : items) {
        WireRequest &request = conn.requestScratch;
        crs::RetrievalRequest local;
        try {
            decodeRequest(item, conn.peer, request);
            local.goal = decodeGoal(request.goalPif, symbols_, arena,
                                    conn.peer);
        } catch (const CorruptionError &e) {
            ++server_.metrics().counter("net.bad_requests",
                                        "requests failing validation");
            queueFrame(conn, FrameType::Error,
                       encodeError(ErrorCode::BadRequest, e.what()));
            return;
        }
        if (term::predicateOf(arena, local.goal) != request.predicate) {
            ++server_.metrics().counter("net.bad_requests",
                                        "requests failing validation");
            queueFrame(conn, FrameType::Error,
                       encodeError(ErrorCode::BadRequest,
                                   "predicate field disagrees with "
                                   "the goal"));
            return;
        }
        if (!store_.has(request.predicate)) {
            ++server_.metrics().counter("net.bad_requests",
                                        "requests failing validation");
            queueFrame(conn, FrameType::Error,
                       encodeError(ErrorCode::BadRequest,
                                   "unknown predicate"));
            return;
        }
        local.arena = &arena;
        local.mode = request.mode;
        local.bypassCache = request.bypassCache;
        batch.push_back(local);
        ids.push_back(request.id);
    }

    try {
        std::vector<crs::RetrievalResponse> responses =
            server_.serveBatch(batch);
        // Build the batch payload in place (no vector<vector>
        // staging): warm items splice their cached blob in with the
        // id patched, cold items encode into the same buffer.
        std::vector<std::uint8_t> &reply = conn.payloadScratch;
        reply.clear();
        beginBatchPayload(static_cast<std::uint32_t>(responses.size()),
                          reply);
        for (std::size_t i = 0; i < responses.size(); ++i) {
            std::size_t at = openBatchItem(reply);
            if (responses[i].replayBlob != nullptr) {
                const std::vector<std::uint8_t> &blob =
                    *responses[i].replayBlob;
                std::size_t item_start = reply.size();
                reply.insert(reply.end(), blob.begin(), blob.end());
                crs::patchResponseBlobId(reply.data() + item_start,
                                         blob.size(), ids[i]);
            } else {
                encodeResponse(ids[i], responses[i], reply);
            }
            closeBatchItem(at, reply);
        }
        served_ += responses.size();
        ++server_.metrics().counter("net.responses",
                                    "responses served");
        queueFrame(conn, FrameType::BatchResponse, reply);
    } catch (const Error &e) {
        ++server_.metrics().counter("net.serve_errors",
                                    "requests failing in the pipeline");
        queueFrame(conn, FrameType::Error,
                   encodeError(ErrorCode::Internal, e.what()));
    }
}

json::Value
NetServer::healthJson() const
{
    json::Value doc = json::Value::object();
    doc.set("status", "ok");
    doc.set("connections",
            static_cast<std::uint64_t>(connections_.size()));
    doc.set("served", served_);
    doc.set("predicates",
            static_cast<std::uint64_t>(store_.predicates().size()));
    return doc;
}

bool
NetServer::queueFrame(Connection &conn, FrameType type,
                      const std::vector<std::uint8_t> &payload)
{
    conn.frameScratch.clear();
    encodeFrame(type, payload, conn.frameScratch);
    return queueBuiltFrame(conn);
}

bool
NetServer::queueBlobFrame(Connection &conn,
                          const std::vector<std::uint8_t> &blob,
                          std::uint64_t request_id)
{
    conn.frameScratch.clear();
    encodeFramePatched(FrameType::Response, blob.data(), blob.size(),
                       crs::kBlobIdOffset, request_id,
                       conn.frameScratch);
    return queueBuiltFrame(conn);
}

bool
NetServer::queueBuiltFrame(Connection &conn)
{
    std::vector<std::uint8_t> &frame = conn.frameScratch;
    std::uint64_t key = framesSent_++;

    const support::FaultInjector *faults = config_.wireFaults;
    if (faults != nullptr) {
        switch (faults->frameFault(kWireSite, key)) {
          case support::FrameFault::None:
            break;
          case support::FrameFault::Drop:
            ++server_.metrics().counter("net.fault.drop",
                                        "outbound frames dropped");
            return false;
          case support::FrameFault::Truncate: {
            ++server_.metrics().counter("net.fault.truncate",
                                        "outbound frames truncated");
            frame.resize(faults->truncatedFrameBytes(kWireSite, key,
                                                     frame.size()));
            conn.outbound.insert(conn.outbound.end(), frame.begin(),
                                 frame.end());
            conn.closing = true; // cut mid-frame, then hang up
            return true;
          }
          case support::FrameFault::Corrupt:
            ++server_.metrics().counter(
                "net.fault.corrupt", "outbound frames bit-flipped");
            faults->flipBit(kWireSite, key, frame.data(),
                            frame.size());
            break;
          case support::FrameFault::Delay:
            ++server_.metrics().counter("net.fault.delay",
                                        "outbound frames delayed");
            std::this_thread::sleep_for(std::chrono::milliseconds(
                faults->config().frameDelayMillis));
            break;
        }
    }
    conn.outbound.insert(conn.outbound.end(), frame.begin(),
                         frame.end());
    return true;
}

bool
NetServer::writeReady(Connection &conn)
{
    while (conn.outboundAt < conn.outbound.size()) {
        ssize_t n = ::send(conn.fd.get(),
                           conn.outbound.data() + conn.outboundAt,
                           conn.outbound.size() - conn.outboundAt,
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.outboundAt += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    if (conn.outboundAt == conn.outbound.size()) {
        conn.outbound.clear();
        conn.outboundAt = 0;
        if (conn.closing)
            return false;
    }
    updateEpoll(conn);
    return true;
}

void
NetServer::updateEpoll(Connection &conn)
{
    // Try to flush inline first; epoll only needs EPOLLOUT for the
    // remainder the kernel would not take.
    if (conn.outboundAt < conn.outbound.size()) {
        ssize_t n = ::send(conn.fd.get(),
                           conn.outbound.data() + conn.outboundAt,
                           conn.outbound.size() - conn.outboundAt,
                           MSG_NOSIGNAL);
        if (n > 0)
            conn.outboundAt += static_cast<std::size_t>(n);
        if (conn.outboundAt == conn.outbound.size()) {
            conn.outbound.clear();
            conn.outboundAt = 0;
        }
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (conn.outboundAt < conn.outbound.size())
        ev.events |= EPOLLOUT;
    ev.data.fd = conn.fd.get();
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void
NetServer::closeConnection(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end())
        return;
    ::epoll_ctl(epollFd_.get(), EPOLL_CTL_DEL, fd, nullptr);
    ++server_.metrics().counter("net.closed", "connections closed");
    connections_.erase(it);
}

} // namespace clare::net
