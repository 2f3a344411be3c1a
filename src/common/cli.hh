/**
 * @file
 * Minimal command-line flag parser used by the benchmark and example
 * binaries. Supports "--name=value" and "--name value" forms.
 */

#ifndef ABNDP_COMMON_CLI_HH
#define ABNDP_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace abndp
{

/** Parsed command-line flags with typed, defaulted accessors. */
class CliFlags
{
  public:
    CliFlags() = default;
    CliFlags(int argc, char **argv) { parse(argc, argv); }

    /** Parse argv; unknown flags are collected, positionals kept aside. */
    void parse(int argc, char **argv);

    bool has(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &defval) const;
    std::int64_t getInt(const std::string &name, std::int64_t defval) const;
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t defval) const;
    double getDouble(const std::string &name, double defval) const;
    bool getBool(const std::string &name, bool defval) const;

    const std::vector<std::string> &positional() const { return args; }

    /**
     * fatal() naming every flag given on the command line that no
     * has()/get*() call has looked up. Opt-in: a front end calls it
     * after reading all its flags and before doing any work, so a
     * misspelled or removed flag stops the run instead of being
     * ignored.
     */
    void rejectUnread() const;

  private:
    std::map<std::string, std::string> flags;
    std::vector<std::string> args;
    /** Names looked up so far, given or not. */
    mutable std::set<std::string> readNames;

    /** The value of flag @p name, or nullptr; records the lookup. */
    const std::string *find(const std::string &name) const;
};

/**
 * Insert @p tag into @p path before its extension — "out/trace.json"
 * with tag "pr.O" becomes "out/trace.pr.O.json". Paths without an
 * extension get ".tag" appended. Used by the multi-run front ends to
 * derive per-design output files from one --trace-out/--stats-out flag.
 */
std::string tagPath(const std::string &path, const std::string &tag);

} // namespace abndp

#endif // ABNDP_COMMON_CLI_HH
