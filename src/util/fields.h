/**
 * @file
 * Field tables: one row per key of a fixed INI section, bound to a
 * struct member, e.g. `field<Cfg>("ec", "period", M(ec.period), 1u)`.
 * The reader, the writer and the allowed-key check all iterate the
 * table, so a key is spelled once and its text maps to a value only
 * through util/parse.h. A row's kind follows the member's type: bool,
 * a number in [lo, hi] (by default the type's range), a string
 * (written only when non-empty), an enum spelled by name, or text with
 * a row-specific read/write pair.
 */

#ifndef NPS_UTIL_FIELDS_H
#define NPS_UTIL_FIELDS_H

#include <algorithm>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ini.h"
#include "util/logging.h"
#include "util/parse.h"

namespace nps {
namespace util {

/** What a field's text means. */
enum class FieldKind
{
    Bool,
    Integer,
    Double,
    String,
    Enum,
    Text,
};

/** One key of a fixed INI section, bound to a member of T. */
template <class T>
struct Field
{
    const char *section;
    const char *key;
    FieldKind kind;
    /** Range ends as text (Integer, Double) or the names (Enum). */
    std::vector<std::string> domain;
    /** Set the member from @p raw; @p what names the input in errors. */
    std::function<void(T &, const std::string &raw,
                       const std::string &what)>
        read;
    /** The member as text; an empty string leaves the key out. */
    std::function<std::string(const T &)> write;
};

/** The member type an accessor lambda reaches. */
template <class T, class Ref>
using MemberOf = std::remove_reference_t<std::invoke_result_t<Ref, T &>>;

/**
 * A bool, arithmetic or std::string row. @p ref is a generic accessor
 * (`[](auto &c) -> auto & { return c.member; }`); numbers must lie in
 * [@p lo, @p hi].
 */
template <class T, class Ref, class M = MemberOf<T, Ref>>
Field<T>
field(const char *section, const char *key, Ref ref,
      std::type_identity_t<M> lo = std::numeric_limits<M>::lowest(),
      std::type_identity_t<M> hi = std::numeric_limits<M>::max())
{
    Field<T> f{section, key, FieldKind::String, {}, {}, {}};
    if constexpr (std::is_same_v<M, bool>) {
        f.kind = FieldKind::Bool;
        f.read = [ref](T &t, const std::string &raw,
                       const std::string &what) {
            ref(t) = parseBool(raw, what);
        };
        f.write = [ref](const T &t) {
            return std::string(ref(t) ? "true" : "false");
        };
    } else if constexpr (std::is_arithmetic_v<M>) {
        f.kind = std::is_integral_v<M> ? FieldKind::Integer
                                       : FieldKind::Double;
        f.domain = {numberText(lo), numberText(hi)};
        f.read = [ref, lo, hi](T &t, const std::string &raw,
                               const std::string &what) {
            ref(t) = parseNumber<M>(raw, what, lo, hi);
        };
        f.write = [ref](const T &t) { return numberText(ref(t)); };
    } else {
        static_assert(std::is_same_v<M, std::string>);
        f.read = [ref](T &t, const std::string &raw, const std::string &) {
            ref(t) = raw;
        };
        f.write = [ref](const T &t) { return ref(t); };
    }
    return f;
}

/** An enum row spelled by @p names. */
template <class T, class Ref, class E = MemberOf<T, Ref>>
Field<T>
enumField(const char *section, const char *key, Ref ref,
          std::vector<std::pair<std::string, E>> names)
{
    Field<T> f{section, key, FieldKind::Enum, {}, {}, {}};
    std::string want = "one of";
    for (const auto &n : names) {
        f.domain.push_back(n.first);
        want += (f.domain.size() > 1 ? ", " : " ") + n.first;
    }
    f.read = [ref, names, want](T &t, const std::string &raw,
                                const std::string &what) {
        for (const auto &n : names)
            if (n.first == raw)
                return void(ref(t) = n.second);
        detail::badToken(what, raw, want);
    };
    f.write = [ref, names](const T &t) {
        for (const auto &n : names)
            if (n.second == ref(t))
                return n.first;
        panic("enumField: value without a name");
    };
    return f;
}

/** @return true when @p table has a row in [@p section]. */
template <class T>
bool
hasSection(const std::vector<Field<T>> &table, const std::string &section)
{
    return std::any_of(table.begin(), table.end(), [&](const Field<T> &f) {
        return section == f.section;
    });
}

/** fatal() unless every key of [@p section] has a row in @p table. */
template <class T>
void
checkKeys(const std::vector<Field<T>> &table, const IniDocument &ini,
          const std::string &section, const char *input)
{
    for (const auto &key : ini.keys(section))
        if (std::none_of(table.begin(), table.end(), [&](const Field<T> &f) {
                return section == f.section && key == f.key;
            }))
            fatal("%s: unknown key '%s' in [%s]", input, key.c_str(),
                  section.c_str());
}

/** Read every row whose key is present in @p ini into @p out. */
template <class T>
void
readFields(const std::vector<Field<T>> &table, const IniDocument &ini,
           T &out, const char *input)
{
    for (const auto &f : table) {
        if (ini.has(f.section, f.key))
            f.read(out, ini.get(f.section, f.key),
                   std::string(input) + " [" + f.section + "] " + f.key);
    }
}

/** fatal() on any section or key without a row, then readFields(). */
template <class T>
void
readStrict(const std::vector<Field<T>> &table, const IniDocument &ini,
           T &out, const char *input)
{
    for (const auto &section : ini.sections()) {
        if (!hasSection(table, section))
            fatal("%s: unknown section [%s]", input, section.c_str());
        checkKeys(table, ini, section, input);
    }
    readFields(table, ini, out, input);
}

/** Write every row of @p in, in table order. */
template <class T>
void
writeFields(const std::vector<Field<T>> &table, const T &in,
            IniDocument &ini)
{
    for (const auto &f : table) {
        std::string text = f.write(in);
        if (!text.empty())
            ini.set(f.section, f.key, text);
    }
}

} // namespace util
} // namespace nps

#endif // NPS_UTIL_FIELDS_H
