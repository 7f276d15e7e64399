/**
 * @file
 * Minimal command-line flag parsing shared by examples and benchmark
 * harnesses: `--name=value`, `--name value`, and boolean `--name`.
 */

#ifndef FP_UTIL_CLI_HH
#define FP_UTIL_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fp
{

class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &def = "") const;
    /** Integer flag (decimal, 0x hex or 0 octal); a value with no
     *  digits or with trailing characters is fatal, naming the flag. */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;
    /** Finite number flag; malformed values are fatal like getInt's. */
    double getDouble(const std::string &name, double def) const;
    /** true/1/yes/on or false/0/no/off; anything else is fatal. */
    bool getBool(const std::string &name, bool def = false) const;

    /** Flag names in command-line order; a repeated flag keeps its
     *  last value and its last position. */
    const std::vector<std::string> &names() const { return names_; }

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    const std::string &program() const { return program_; }

  private:
    void set(const std::string &name, std::string value);

    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> names_;
    std::vector<std::string> positional_;
};

} // namespace fp

#endif // FP_UTIL_CLI_HH
