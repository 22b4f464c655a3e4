/**
 * @file
 * Helpers for table-driven tests over util::Field schemas.
 */

#ifndef NPS_TESTS_COMMON_FIELDS_H
#define NPS_TESTS_COMMON_FIELDS_H

#include <string>

#include "util/fields.h"

namespace nps_test {

/**
 * A valid value for @p f other than @p current: the high (or low) end
 * of a numeric range, the other boolean, another enum name, or the
 * text with a letter appended. Text rows need a caller-chosen value.
 */
template <class T>
std::string
otherValue(const nps::util::Field<T> &f, const std::string &current,
           bool high)
{
    switch (f.kind) {
    case nps::util::FieldKind::Bool:
        return current == "true" ? "false" : "true";
    case nps::util::FieldKind::Integer:
    case nps::util::FieldKind::Double:
        return f.domain[high] != current ? f.domain[high] : f.domain[!high];
    case nps::util::FieldKind::Enum:
        return f.domain[0] != current ? f.domain[0] : f.domain[1];
    case nps::util::FieldKind::String:
    case nps::util::FieldKind::Text:
        break;
    }
    return current + (high ? "x" : "y");
}

} // namespace nps_test

#endif // NPS_TESTS_COMMON_FIELDS_H
