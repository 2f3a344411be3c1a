#include "common/cli.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace abndp
{

void
CliFlags::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            args.push_back(tok);
            continue;
        }
        tok = tok.substr(2);
        auto eq = tok.find('=');
        if (eq != std::string::npos) {
            flags[tok.substr(0, eq)] = tok.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            flags[tok] = argv[++i];
        } else {
            flags[tok] = "true";
        }
    }
}

const std::string *
CliFlags::find(const std::string &name) const
{
    readNames.insert(name);
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
}

bool
CliFlags::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
CliFlags::getString(const std::string &name, const std::string &defval) const
{
    const std::string *v = find(name);
    return v ? *v : defval;
}

std::int64_t
CliFlags::getInt(const std::string &name, std::int64_t defval) const
{
    const std::string *v = find(name);
    return v ? std::strtoll(v->c_str(), nullptr, 0) : defval;
}

std::uint64_t
CliFlags::getUint(const std::string &name, std::uint64_t defval) const
{
    const std::string *v = find(name);
    return v ? std::strtoull(v->c_str(), nullptr, 0) : defval;
}

double
CliFlags::getDouble(const std::string &name, double defval) const
{
    const std::string *v = find(name);
    return v ? std::strtod(v->c_str(), nullptr) : defval;
}

bool
CliFlags::getBool(const std::string &name, bool defval) const
{
    const std::string *found = find(name);
    if (!found)
        return defval;
    const std::string &v = *found;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("bad boolean flag --", name, "=", v);
}

void
CliFlags::rejectUnread() const
{
    std::string unread;
    for (const auto &[name, value] : flags)
        if (!readNames.count(name))
            unread += (unread.empty() ? "--" : ", --") + name;
    if (!unread.empty())
        fatal("unknown flag(s) ", unread, " (see --help)");
}

std::string
tagPath(const std::string &path, const std::string &tag)
{
    auto slash = path.find_last_of('/');
    auto dot = path.find_last_of('.');
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

} // namespace abndp
