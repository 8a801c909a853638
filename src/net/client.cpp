#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "machines/machines.h"
#include "net/frame.h"
#include "store/store.h"
#include "support/diagnostics.h"
#include "support/io_retry.h"
#include "support/json.h"

namespace mdes::net {

using service::ErrorCode;

NetResponse
parseResponseJson(const std::string &body)
{
    JsonValue doc = parseJson(body);
    if (doc.kind != JsonValue::Kind::Object)
        throw MdesError("net: response is not a JSON object");
    NetResponse r;
    r.transport_ok = true;
    // jsonU64 (not .number): ids and cycle counts are full u64s and
    // must not round through the parser's double above 2^53.
    if (const JsonValue *v = doc.find("id"))
        r.id = jsonU64(*v);
    if (const JsonValue *v = doc.find("code"))
        r.code = ErrorCode(int(v->number));
    if (const JsonValue *v = doc.find("error"))
        r.error = v->string;
    if (const JsonValue *v = doc.find("message"))
        r.message = v->string;
    if (const JsonValue *v = doc.find("machine"))
        r.machine = v->string;
    if (const JsonValue *v = doc.find("fingerprint")) {
        try {
            r.fingerprint = std::stoull(v->string);
        } catch (const std::exception &) {
            throw MdesError("net: bad fingerprint '" + v->string + "'");
        }
    }
    if (const JsonValue *v = doc.find("cache_hit"))
        r.cache_hit = v->boolean;
    if (const JsonValue *v = doc.find("disk_hit"))
        r.disk_hit = v->boolean;
    if (const JsonValue *v = doc.find("degraded"))
        r.degraded = v->boolean;
    if (const JsonValue *v = doc.find("total_cycles"))
        r.total_cycles = jsonU64(*v);
    if (const JsonValue *v = doc.find("blocks"))
        r.blocks = jsonU64(*v);
    return r;
}

uint64_t
routeKey(const service::ScheduleRequest &req)
{
    if (req.machine.empty() || !req.source.empty())
        return 0;
    const machines::MachineInfo *info = machines::byName(req.machine);
    if (!info)
        return 0;
    return store::artifactKeyFromSourceHash(info->source_hash,
                                            req.transforms, req.bit_vector);
}

BlockingClient::BlockingClient(const std::string &host, uint16_t port,
                               bool json_mode)
    : json_mode_(json_mode)
{
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    std::string numeric = host == "localhost" ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return;
    }
    for (;;) {
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) == 0)
            break;
        if (errno == EINTR)
            continue;
        ::close(fd);
        return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
}

BlockingClient::~BlockingClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

namespace {

/** Send all of @p data; false on connection loss. MSG_NOSIGNAL (via
 * io::sendRetry) turns a peer that closed mid-write into EPIPE instead
 * of a process-killing SIGPIPE - the chaos harness slams connections
 * shut constantly and the client must shrug, not die. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n =
            io::sendRetry(fd, data.data() + off, data.size() - off);
        if (n > 0) {
            off += size_t(n);
            continue;
        }
        return false;
    }
    return true;
}

} // namespace

NetResponse
BlockingClient::request(const std::string &line, uint32_t deadline_ms,
                        uint64_t route)
{
    NetResponse fail; // transport_ok == false
    if (fd_ < 0)
        return fail;
    uint64_t id = next_id_++;
    std::string wire;
    if (json_mode_) {
        JsonWriter w;
        w.beginObject();
        w.key("id").value(id);
        w.key("req").value(line);
        if (deadline_ms)
            w.key("deadline_ms").value(uint64_t(deadline_ms));
        if (route)
            w.key("route").value(route);
        w.endObject();
        wire = w.str() + "\n";
    } else {
        Frame f;
        f.type = FrameType::Request;
        f.id = id;
        f.deadline_ms = deadline_ms;
        f.route = route;
        f.payload = line;
        wire = encodeFrame(f);
    }
    if (!writeAll(fd_, wire)) {
        ::close(fd_);
        fd_ = -1;
        return fail;
    }
    return readResponse(id);
}

NetResponse
BlockingClient::readResponse(uint64_t want_id)
{
    NetResponse fail;
    FrameDecoder decoder;
    decoder.feed(inbuf_.data(), inbuf_.size());
    std::string jsonbuf = std::move(inbuf_);
    inbuf_.clear();
    char buf[16384];
    for (;;) {
        if (json_mode_) {
            size_t nl = jsonbuf.find('\n');
            if (nl != std::string::npos) {
                std::string body = jsonbuf.substr(0, nl);
                inbuf_ = jsonbuf.substr(nl + 1);
                try {
                    return parseResponseJson(body);
                } catch (const MdesError &) {
                    ::close(fd_);
                    fd_ = -1;
                    return fail;
                }
            }
        } else {
            Frame frame;
            FrameDecoder::Status st = decoder.next(&frame);
            if (st == FrameDecoder::Status::Error) {
                ::close(fd_);
                fd_ = -1;
                return fail;
            }
            if (st == FrameDecoder::Status::Ready) {
                if (frame.type == FrameType::Pong ||
                    frame.id != want_id)
                    continue; // not ours; keep reading
                // Bytes decoded past our frame (pipelined traffic)
                // go back to inbuf_ for the next reader.
                inbuf_ = decoder.takeResidue();
                try {
                    return parseResponseJson(frame.payload);
                } catch (const MdesError &) {
                    ::close(fd_);
                    fd_ = -1;
                    return fail;
                }
            }
        }
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            if (json_mode_)
                jsonbuf.append(buf, size_t(n));
            else
                decoder.feed(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        ::close(fd_);
        fd_ = -1;
        return fail; // EOF or reset before our response
    }
}

std::string
BlockingClient::stats()
{
    if (fd_ < 0)
        return "";
    uint64_t id = next_id_++;
    std::string wire;
    if (json_mode_) {
        wire = "{\"id\":" + std::to_string(id) + ",\"op\":\"stats\"}\n";
    } else {
        Frame f;
        f.type = FrameType::Stat;
        f.id = id;
        wire = encodeFrame(f);
    }
    if (!writeAll(fd_, wire)) {
        ::close(fd_);
        fd_ = -1;
        return "";
    }
    char buf[16384];
    if (json_mode_) {
        std::string jsonbuf = std::move(inbuf_);
        inbuf_.clear();
        for (;;) {
            size_t nl = jsonbuf.find('\n');
            if (nl != std::string::npos) {
                inbuf_ = jsonbuf.substr(nl + 1);
                return jsonbuf.substr(0, nl);
            }
            ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n > 0) {
                jsonbuf.append(buf, size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            ::close(fd_);
            fd_ = -1;
            return "";
        }
    }
    FrameDecoder decoder;
    decoder.feed(inbuf_.data(), inbuf_.size());
    inbuf_.clear();
    for (;;) {
        Frame frame;
        FrameDecoder::Status st = decoder.next(&frame);
        if (st == FrameDecoder::Status::Error)
            break;
        if (st == FrameDecoder::Status::Ready) {
            if (frame.type != FrameType::Response || frame.id != id)
                continue; // a pong or an earlier response; keep reading
            // Restore any decoded-but-unconsumed bytes so a response
            // to a request still in flight is not dropped.
            inbuf_ = decoder.takeResidue();
            return frame.payload;
        }
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            decoder.feed(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd_);
    fd_ = -1;
    return "";
}

std::string
BlockingClient::health()
{
    if (fd_ < 0)
        return "";
    uint64_t id = next_id_++;
    std::string wire;
    if (json_mode_) {
        wire = "{\"id\":" + std::to_string(id) + ",\"op\":\"health\"}\n";
    } else {
        Frame f;
        f.type = FrameType::Health;
        f.id = id;
        wire = encodeFrame(f);
    }
    if (!writeAll(fd_, wire)) {
        ::close(fd_);
        fd_ = -1;
        return "";
    }
    char buf[16384];
    if (json_mode_) {
        std::string jsonbuf = std::move(inbuf_);
        inbuf_.clear();
        for (;;) {
            size_t nl = jsonbuf.find('\n');
            if (nl != std::string::npos) {
                inbuf_ = jsonbuf.substr(nl + 1);
                return jsonbuf.substr(0, nl);
            }
            ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n > 0) {
                jsonbuf.append(buf, size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            ::close(fd_);
            fd_ = -1;
            return "";
        }
    }
    FrameDecoder decoder;
    decoder.feed(inbuf_.data(), inbuf_.size());
    inbuf_.clear();
    for (;;) {
        Frame frame;
        FrameDecoder::Status st = decoder.next(&frame);
        if (st == FrameDecoder::Status::Error)
            break;
        if (st == FrameDecoder::Status::Ready) {
            if (frame.type != FrameType::Response || frame.id != id)
                continue; // a pong or an earlier response; keep reading
            inbuf_ = decoder.takeResidue();
            return frame.payload;
        }
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            decoder.feed(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd_);
    fd_ = -1;
    return "";
}

bool
BlockingClient::ping()
{
    if (fd_ < 0 || json_mode_)
        return false;
    Frame f;
    f.type = FrameType::Ping;
    f.id = next_id_++;
    if (!writeAll(fd_, encodeFrame(f))) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    FrameDecoder decoder;
    decoder.feed(inbuf_.data(), inbuf_.size());
    inbuf_.clear();
    char buf[4096];
    for (;;) {
        Frame frame;
        FrameDecoder::Status st = decoder.next(&frame);
        if (st == FrameDecoder::Status::Error)
            break;
        if (st == FrameDecoder::Status::Ready) {
            inbuf_ = decoder.takeResidue();
            return frame.type == FrameType::Pong;
        }
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            decoder.feed(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd_);
    fd_ = -1;
    return false;
}

} // namespace mdes::net
