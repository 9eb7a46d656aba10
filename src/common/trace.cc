#include "common/trace.hh"

#include "common/log.hh"

namespace rowsim
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::Pipeline: return "pipeline";
      case TraceCategory::Atomic: return "atomic";
      case TraceCategory::Coherence: return "coherence";
      case TraceCategory::Directory: return "directory";
      case TraceCategory::Network: return "network";
      case TraceCategory::Predictor: return "predictor";
      case TraceCategory::Queue: return "queue";
      case TraceCategory::Span: return "span";
    }
    return "?";
}

std::uint32_t
parseTraceCategories(const std::string &spec)
{
    return parseCategoryList(
        "ROWSIM_TRACE", spec,
        [](std::uint32_t bit) {
            return traceCategoryName(static_cast<TraceCategory>(bit));
        },
        traceCategoryAll);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

Trace &
Trace::instance()
{
    // One Trace per thread: sinks never cross threads, so concurrent
    // sweep workers cannot interleave output.
    static thread_local Trace t;
    return t;
}

Trace::~Trace()
{
    closeAll();
}

std::string
suffixJobPath(const std::string &path, const std::string &key)
{
    if (key.empty())
        return path;
    // Insert before the last extension, but not before a dot that is
    // part of a directory component ("out.d/trace").
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + key;
    }
    return path.substr(0, dot) + "." + key + path.substr(dot);
}

void
Trace::scopeToJob(const std::string &key)
{
    instance().closeAll();
    jobKey_ = key;
    envInitDone_ = false;
}

const std::string &
Trace::jobKey()
{
    return jobKey_;
}

void
Trace::initOnce(const TraceSetup &env)
{
    if (envInitDone_)
        return;
    envInitDone_ = true;

    if (!env.mask)
        return;
    Trace &t = instance();

    if (!env.file.empty()) {
        const std::string p = suffixJobPath(env.file, jobKey_);
        std::FILE *f = std::fopen(p.c_str(), "w");
        if (!f)
            ROWSIM_FATAL("cannot open trace text file '%s'", p.c_str());
        t.setTextSink(f, true);
    }
    t.openJson(suffixJobPath(
        env.json.empty() ? "rowsim.trace.json" : env.json, jobKey_));
}

void
Trace::setTextSink(std::FILE *f, bool owned)
{
    if (ownTextSink_ && textSink_)
        std::fclose(textSink_);
    textSink_ = f;
    ownTextSink_ = owned;
}

bool
Trace::openJson(const std::string &path)
{
    closeJson();
    json_ = std::fopen(path.c_str(), "w");
    if (!json_) {
        ROWSIM_WARN("cannot open chrome trace file '%s'", path.c_str());
        return false;
    }
    std::fputs("{\"traceEvents\":[\n", json_);
    jsonFirst_ = true;
    return true;
}

void
Trace::closeJson()
{
    if (!json_)
        return;
    std::fputs("\n]}\n", json_);
    std::fclose(json_);
    json_ = nullptr;
}

void
Trace::closeAll()
{
    closeJson();
    setTextSink(nullptr, false);
}

void
Trace::emitJson(const std::string &record)
{
    if (!json_)
        return;
    if (!jsonFirst_)
        std::fputs(",\n", json_);
    jsonFirst_ = false;
    std::fputs(record.c_str(), json_);
    events_++;
}

void
Trace::text(TraceCategory cat, Cycle cycle, const char *line)
{
    std::FILE *out = textSink_ ? textSink_ : stderr;
    std::fprintf(out, "%12llu [%s] %s\n",
                 static_cast<unsigned long long>(cycle),
                 traceCategoryName(cat), line);
}

namespace
{
std::string
argsField(const std::string &args_json)
{
    return args_json.empty() ? std::string()
                             : ",\"args\":" + args_json;
}
} // namespace

void
Trace::complete(TraceCategory cat, int pid, int tid, const char *name,
                Cycle start, Cycle end, const std::string &args_json)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
        "\"dur\":%llu,\"pid\":%d,\"tid\":%d%s}",
        jsonEscape(name).c_str(), traceCategoryName(cat),
        static_cast<unsigned long long>(start),
        static_cast<unsigned long long>(end >= start ? end - start : 0),
        pid, tid, argsField(args_json).c_str()));
}

void
Trace::span(TraceCategory cat, int pid, int tid, const char *name,
            std::uint64_t id, Cycle start, Cycle end,
            const std::string &args_json)
{
    if (!json_)
        return;
    const std::string escaped = jsonEscape(name);
    const char *catname = traceCategoryName(cat);
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\",\"id\":\"%llx\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d%s}",
        escaped.c_str(), catname, static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(start), pid, tid,
        argsField(args_json).c_str()));
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\",\"id\":\"%llx\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d}",
        escaped.c_str(), catname, static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(end), pid, tid));
}

void
Trace::instant(TraceCategory cat, int pid, int tid, const char *name,
               Cycle ts, const std::string &args_json)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d%s}",
        jsonEscape(name).c_str(), traceCategoryName(cat),
        static_cast<unsigned long long>(ts), pid, tid,
        argsField(args_json).c_str()));
}

void
Trace::flow(TraceCategory cat, int pid, int tid, const char *name,
            std::uint64_t id, Cycle ts, char phase)
{
    if (!json_)
        return;
    // Flow-finish binds to the enclosing slice ("bp":"e") so the arrow
    // lands on the segment slice rather than needing a matching
    // instant.
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"id\":\"%llx\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d%s}",
        jsonEscape(name).c_str(), traceCategoryName(cat), phase,
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(ts), pid, tid,
        phase == 'f' ? ",\"bp\":\"e\"" : ""));
}

void
Trace::counter(TraceCategory cat, int pid, const char *name, Cycle ts,
               double value)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%llu,"
        "\"pid\":%d,\"args\":{\"value\":%g}}",
        jsonEscape(name).c_str(), traceCategoryName(cat),
        static_cast<unsigned long long>(ts), pid, value));
}

void
Trace::nameProcess(int pid, const std::string &name)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, jsonEscape(name).c_str()));
}

void
Trace::nameThread(int pid, int tid, const std::string &name)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, tid, jsonEscape(name).c_str()));
}

} // namespace rowsim
