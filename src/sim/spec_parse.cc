#include "sim/spec_parse.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "workload/mixes.hh"

namespace fp::sim
{

namespace
{

std::string
typeName(const JsonValue &v)
{
    switch (v.type()) {
      case JsonValue::Type::null:
        return "null";
      case JsonValue::Type::boolean:
        return "a boolean";
      case JsonValue::Type::number:
        return "a number";
      case JsonValue::Type::string:
        return "a string";
      case JsonValue::Type::array:
        return "an array";
      case JsonValue::Type::object:
        return "an object";
    }
    return "a value";
}

const JsonValue &
expectObject(const SpecSource &src, const JsonValue &v,
             const std::string &what)
{
    if (!v.isObject())
        specFail(src, v, what + " must be an object, not " +
                             typeName(v));
    return v;
}

std::string
expectString(const SpecSource &src, const JsonValue &v,
             const std::string &what)
{
    if (!v.isString())
        specFail(src, v, what + " must be a string, not " +
                             typeName(v));
    return v.asString();
}

bool
expectBool(const SpecSource &src, const JsonValue &v,
           const std::string &what)
{
    if (!v.isBool())
        specFail(src, v, what + " must be true or false, not " +
                             typeName(v));
    return v.asBool();
}

std::vector<std::string>
expectStringList(const SpecSource &src, const JsonValue &v,
                 const std::string &what)
{
    if (!v.isArray())
        specFail(src, v, what + " must be an array of strings, not " +
                             typeName(v));
    std::vector<std::string> out;
    out.reserve(v.size());
    for (const JsonValue &item : v.items())
        out.push_back(expectString(src, item, what + " entry"));
    return out;
}

std::vector<ConfigOverride>
overridesOf(const SpecSource &src, const JsonValue &v,
            const std::string &what)
{
    expectObject(src, v, what);
    std::vector<ConfigOverride> out;
    out.reserve(v.members().size());
    for (const auto &[key, value] : v.members())
        out.push_back(ConfigOverride{key, value, {}});
    return out;
}

void
rejectUnknownKeys(const SpecSource &src, const JsonValue &obj,
                  const std::vector<std::string> &known,
                  const std::string &where)
{
    for (const auto &[key, value] : obj.members()) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        std::string list;
        for (const std::string &k : known)
            list += list.empty() ? k : ", " + k;
        specFail(src, value,
                 where + ": unknown key \"" + key +
                     "\" (known keys: " + list + ")");
    }
}

void
validateName(const SpecSource &src, const JsonValue &node,
             const std::string &name, const std::string &what)
{
    if (name.empty())
        specFail(src, node, what + " must not be empty");
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '_' && c != '-') {
            specFail(src, node,
                     what + " \"" + name +
                         "\" may only contain [A-Za-z0-9_-]");
        }
    }
}

void
validateMixes(const SpecSource &src, const JsonValue &node,
              const std::vector<std::string> &mixes)
{
    const auto known = workload::mixNames();
    for (const std::string &mix : mixes) {
        if (std::find(known.begin(), known.end(), mix) == known.end())
            specFail(src, node,
                     "unknown mix \"" + mix +
                         "\" (Table 2 names Mix1..Mix10)");
    }
}

/**
 * Front-loaded validation: expand every configuration the spec can
 * produce (base, then each point, then each grid combination), so
 * range errors and conflicts are fatal here (with spec file/line)
 * and never mid-sweep.
 */
void
validateOverrides(const ExperimentSpec &spec)
{
    SimConfig base = SimConfig::paperDefault();
    applyOverrides(base, spec.base, &spec.source);
    expandSpecConfigs(spec, base);
}

} // namespace

ExperimentSpec
parseSpecText(const std::string &text, const std::string &path)
{
    ExperimentSpec spec;
    spec.source.path = path;
    spec.source.text = text;
    spec.source.hash = specHash(text);
    const SpecSource &src = spec.source;

    // JsonValue::parse panics on malformed input; convert that into
    // a spec-file error naming the file. The error is re-raised only
    // after the guard is gone, so fp_fatal exits (or propagates to an
    // outer guard) rather than escaping the catch block.
    JsonValue doc;
    std::string parse_error;
    {
        ScopedRecoverableFailures guard;
        try {
            doc = JsonValue::parse(text);
        } catch (const SimFailure &failure) {
            parse_error = failure.what();
        }
    }
    if (!parse_error.empty())
        fp_fatal("experiment spec %s: %s", path.c_str(),
                 parse_error.c_str());
    expectObject(src, doc, "the spec document");
    rejectUnknownKeys(src, doc,
                      {"name", "scenario", "description", "mixes",
                       "base", "grid", "points", "params", "output",
                       "gate", "smoke"},
                      "spec");

    const JsonValue *name = doc.find("name");
    if (!name)
        specFail(src, doc, "spec is missing the required \"name\"");
    spec.name = expectString(src, *name, "\"name\"");
    validateName(src, *name, spec.name, "\"name\"");

    spec.scenario = spec.name;
    if (const JsonValue *v = doc.find("scenario")) {
        spec.scenario = expectString(src, *v, "\"scenario\"");
        validateName(src, *v, spec.scenario, "\"scenario\"");
    }
    if (const JsonValue *v = doc.find("description"))
        spec.description = expectString(src, *v, "\"description\"");

    if (const JsonValue *v = doc.find("mixes")) {
        spec.defaultMixes = expectStringList(src, *v, "\"mixes\"");
        if (spec.defaultMixes.empty())
            specFail(src, *v, "\"mixes\" must not be empty");
        validateMixes(src, *v, spec.defaultMixes);
    }

    if (const JsonValue *v = doc.find("base"))
        spec.base = overridesOf(src, *v, "\"base\"");

    if (const JsonValue *v = doc.find("grid")) {
        expectObject(src, *v, "\"grid\"");
        for (const auto &[key, values] : v->members()) {
            if (!values.isArray() || values.size() == 0)
                specFail(src, values,
                         "grid axis \"" + key +
                             "\" must be a non-empty array");
            GridAxis axis;
            axis.key = key;
            axis.values = values.items();
            spec.grid.push_back(std::move(axis));
        }
    }

    if (const JsonValue *v = doc.find("points")) {
        if (!v->isArray())
            specFail(src, *v, "\"points\" must be an array");
        for (const JsonValue &entry : v->items()) {
            expectObject(src, entry, "points entry");
            rejectUnknownKeys(src, entry, {"name", "mix", "set"},
                              "points entry");
            SpecPoint point;
            const JsonValue *pname = entry.find("name");
            if (!pname)
                specFail(src, entry,
                         "points entry is missing \"name\"");
            point.name = expectString(src, *pname, "point \"name\"");
            if (const JsonValue *mix = entry.find("mix")) {
                point.mix = expectString(src, *mix, "point \"mix\"");
                validateMixes(src, *mix, {point.mix});
            }
            if (const JsonValue *set = entry.find("set"))
                point.overrides =
                    overridesOf(src, *set, "point \"set\"");
            spec.points.push_back(std::move(point));
        }
    }

    if (const JsonValue *v = doc.find("params")) {
        expectObject(src, *v, "\"params\"");
        spec.params = *v;
    }

    if (const JsonValue *v = doc.find("output")) {
        expectObject(src, *v, "\"output\"");
        rejectUnknownKeys(src, *v, {"out"}, "output");
        if (const JsonValue *out = v->find("out"))
            spec.defaultOut =
                expectString(src, *out, "output \"out\"");
    }

    if (const JsonValue *v = doc.find("gate")) {
        expectObject(src, *v, "\"gate\"");
        rejectUnknownKeys(src, *v, {"metrics"}, "gate");
        if (const JsonValue *metrics = v->find("metrics")) {
            spec.gateMetrics =
                expectStringList(src, *metrics, "gate \"metrics\"");
            if (spec.gateMetrics.empty())
                specFail(src, *metrics,
                         "gate \"metrics\" must not be empty");
        }
    }

    if (const JsonValue *v = doc.find("smoke")) {
        expectObject(src, *v, "\"smoke\"");
        rejectUnknownKeys(src, *v, {"args", "trace"}, "smoke");
        if (const JsonValue *a = v->find("args"))
            spec.smokeArgs =
                expectStringList(src, *a, "smoke \"args\"");
        if (const JsonValue *t = v->find("trace"))
            spec.smokeTrace = expectBool(src, *t, "smoke \"trace\"");
    }

    validateOverrides(spec);
    return spec;
}

ExperimentSpec
parseSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fp_fatal("cannot read experiment spec '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseSpecText(text.str(), path);
}

} // namespace fp::sim
