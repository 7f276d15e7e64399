#include "util/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace fp
{

CliArgs::CliArgs(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            set(body.substr(0, eq), body.substr(eq + 1));
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            set(body, argv[++i]);
        } else {
            set(body, "true");
        }
    }
}

void
CliArgs::set(const std::string &name, std::string value)
{
    if (flags_.count(name) > 0)
        names_.erase(std::find(names_.begin(), names_.end(), name));
    names_.push_back(name);
    flags_[name] = std::move(value);
}

bool
CliArgs::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &v = it->second;
    char *end = nullptr;
    errno = 0;
    const long long n = std::strtoll(v.c_str(), &end, 0);
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
        *end != '\0' || errno == ERANGE)
        fp_fatal("--%s expects an integer (got '%s')", name.c_str(),
                 v.c_str());
    return n;
}

double
CliArgs::getDouble(const std::string &name, double def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &v = it->second;
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
        *end != '\0' || !std::isfinite(d))
        fp_fatal("--%s expects a number (got '%s')", name.c_str(),
                 v.c_str());
    return d;
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fp_fatal("--%s expects true or false (got '%s')", name.c_str(),
             v.c_str());
}

} // namespace fp
