#include "sim/resultstore.hh"

#include <cstdio>
#include <cstring>

#include "common/io.hh"
#include "common/log.hh"
#include "common/sha256.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

namespace
{

/** Entry-file magic: "ROWRES\0\0". */
constexpr std::uint8_t kResMagic[8] = {'R', 'O', 'W', 'R', 'E', 'S', 0, 0};

/** magic + u32 schema version + 32-byte key + u64 payload length. */
constexpr std::size_t kResHeaderBytes = 8 + 4 + 32 + 8;
constexpr std::size_t kResTrailerBytes = 32;

} // namespace

std::vector<std::uint8_t>
encodeResult(const RunResult &r)
{
    Ser s;
    s.section("result");
    s.str(r.workload);
    s.str(r.config);
    s.u8(static_cast<std::uint8_t>(r.status));
    s.str(r.error);
    s.u32(r.attempts);
    for (const RunMetric &m : runMetrics()) {
        if (m.count)
            s.u64(r.*m.count);
        else
            s.f64(r.*m.real);
    }
    s.section("converge");
    s.str(r.convergeMetric);
    s.f64(r.convergeTarget);
    s.f64(r.convergeConfidence);
    s.f64(r.convergeAchieved);
    s.b(r.converged);
    s.section("blobs");
    s.str(r.statsJson);
    s.str(r.profileJson);
    s.str(r.spanJson);
    s.str(r.tsJson);
    s.str(r.samplingJson);
    return s.bytes();
}

RunResult
decodeResult(const std::vector<std::uint8_t> &payload)
{
    Deser d(payload);
    RunResult r;
    d.section("result");
    r.workload = d.str();
    r.config = d.str();
    const std::uint8_t status = d.u8();
    if (status > static_cast<std::uint8_t>(RunStatus::TimedOut))
        throw SnapshotError(strprintf("corrupted run status %u", status));
    r.status = static_cast<RunStatus>(status);
    r.error = d.str();
    r.attempts = d.u32();
    for (const RunMetric &m : runMetrics()) {
        if (m.count)
            r.*m.count = d.u64();
        else
            r.*m.real = d.f64();
    }
    d.section("converge");
    r.convergeMetric = d.str();
    r.convergeTarget = d.f64();
    r.convergeConfidence = d.f64();
    r.convergeAchieved = d.f64();
    r.converged = d.b();
    d.section("blobs");
    r.statsJson = d.str();
    r.profileJson = d.str();
    r.spanJson = d.str();
    r.tsJson = d.str();
    r.samplingJson = d.str();
    d.expectEnd();
    return r;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

std::unique_ptr<ResultStore>
ResultStore::forRun(const RunSpec &spec)
{
    if (!spec.results || spec.liveSinks())
        return nullptr;
    return std::make_unique<ResultStore>(spec.resultsDir);
}

ResultKey
ResultStore::keyFor(const RunSpec &spec, const SystemParams &params,
                    const std::string &workload, const std::string &label,
                    std::uint64_t quota)
{
    // The fingerprint covers everything that changes the simulated
    // trajectory (architecture, seed, faults). On top of it the key
    // hashes every spec field flagged as affecting results, named so
    // the preimage is self-describing: the knobs that change what a
    // RunResult contains (profiler mask and top-K, span gate and
    // top-K, interval period, time-series gate and window) and the
    // ones that change the simulation's extent or mode (convergence
    // bound, execution mode, sampling layout).
    Ser s;
    s.section("rowres-key");
    s.u32(resultSchemaVersion);
    s.u64(configFingerprint(params, spec.faultMask, spec.faultSeed,
                            spec.faultRate));
    s.str(workload);
    s.str(label);
    s.u64(quota);
    for (const RunSpecKnob &k : runSpecKnobs()) {
        if (k.affectsResult()) {
            s.str(k.name);
            k.key(s, spec);
        }
    }

    Sha256 h;
    h.update(s.bytes().data(), s.bytes().size());
    return h.digest();
}

std::string
ResultStore::keyHex(const ResultKey &key)
{
    return Sha256::hex(key);
}

std::string
ResultStore::pathFor(const ResultKey &key) const
{
    return dir_ + "/" + keyHex(key) + ".res";
}

void
ResultStore::quarantine(const std::string &path, const char *why)
{
    // Move the damaged entry aside (keeping it for post-mortems) so the
    // recompute path can overwrite the slot; deleting is the fallback
    // when even the rename fails.
    quarantined_++;
    const std::string dst = path + ".quarantined";
    if (std::rename(path.c_str(), dst.c_str()) == 0) {
        ROWSIM_WARN("result store: quarantined '%s' (%s)", path.c_str(),
                    why);
    } else if (std::remove(path.c_str()) == 0) {
        ROWSIM_WARN("result store: removed damaged '%s' (%s)",
                    path.c_str(), why);
    } else {
        ROWSIM_WARN("result store: cannot quarantine '%s' (%s)",
                    path.c_str(), why);
    }
}

bool
ResultStore::load(const ResultKey &key, RunResult &out)
{
    const std::string path = pathFor(key);
    std::vector<std::uint8_t> raw;
    if (!readFileBytes(path, raw)) {
        misses_++;
        return false;
    }

    // Validate the container before trusting a single payload byte.
    if (raw.size() < kResHeaderBytes + kResTrailerBytes ||
        std::memcmp(raw.data(), kResMagic, sizeof(kResMagic)) != 0) {
        quarantine(path, "not a result entry");
        misses_++;
        return false;
    }
    Deser d(raw.data(), raw.size());
    for (std::size_t i = 0; i < sizeof(kResMagic); i++)
        d.u8();
    std::uint32_t version = 0;
    ResultKey embedded{};
    std::uint64_t payloadLen = 0;
    try {
        version = d.u32();
        for (auto &b : embedded)
            b = d.u8();
        payloadLen = d.u64();
    } catch (const SnapshotError &) {
        quarantine(path, "truncated header");
        misses_++;
        return false;
    }
    if (version != resultSchemaVersion) {
        // Stale schema, not damage: the entry was valid for another
        // build. Leave it in place (a store() under the current schema
        // overwrites the slot) and miss cleanly.
        misses_++;
        return false;
    }
    if (embedded != key) {
        quarantine(path, "embedded key mismatch (misplaced entry)");
        misses_++;
        return false;
    }
    if (payloadLen != raw.size() - kResHeaderBytes - kResTrailerBytes) {
        quarantine(path, "truncated payload");
        misses_++;
        return false;
    }
    Sha256 h;
    h.update(raw.data() + kResHeaderBytes,
             static_cast<std::size_t>(payloadLen));
    const auto want = h.digest();
    if (std::memcmp(want.data(), raw.data() + kResHeaderBytes + payloadLen,
                    kResTrailerBytes) != 0) {
        quarantine(path, "payload digest mismatch");
        misses_++;
        return false;
    }

    try {
        out = decodeResult(std::vector<std::uint8_t>(
            raw.begin() + kResHeaderBytes,
            raw.begin() +
                static_cast<std::ptrdiff_t>(kResHeaderBytes + payloadLen)));
    } catch (const SnapshotError &e) {
        // Digest-valid but undecodable means a same-version layout bug;
        // quarantine rather than loop on it.
        quarantine(path, e.what());
        misses_++;
        return false;
    }
    hits_++;
    return true;
}

bool
ResultStore::serve(const ResultKey &key, bool want_stats, RunResult &out)
{
    if (!load(key, out) || (want_stats && out.statsJson.empty()))
        return false;
    if (!want_stats)
        out.statsJson.clear();
    out.fromCache = true;
    return true;
}

void
ResultStore::store(const ResultKey &key, const RunResult &r)
{
    const std::vector<std::uint8_t> payload = encodeResult(r);

    Ser file;
    for (std::uint8_t c : kResMagic)
        file.u8(c);
    file.u32(resultSchemaVersion);
    file.raw(key.data(), key.size());
    file.u64(payload.size());
    file.raw(payload.data(), payload.size());
    Sha256 h;
    h.update(payload.data(), payload.size());
    const auto trailer = h.digest();
    file.raw(trailer.data(), trailer.size());

    try {
        atomicWriteFile(pathFor(key), file.bytes());
        stores_++;
    } catch (const IoError &e) {
        // A full disk or bad permissions cost the cache, not the run.
        ROWSIM_WARN("result store: %s", e.what());
    }
}

} // namespace rowsim
