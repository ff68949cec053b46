#include "fleet/wire.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "campaign/schema.hh"

namespace mcversi::fleet {

namespace {

/** Wire text of one schema field (or envelope number). */
template <class T>
std::string
wireText(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return escapeToken(v);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
        std::string out;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0)
                out += ',';
            out += encodeDouble(v[i]);
        }
        return out;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "1" : "0";
    } else if constexpr (std::is_floating_point_v<T>) {
        return encodeDouble(v);
    } else {
        return std::to_string(v);
    }
}

/** Inverse of wireText(); false unless all of @p text is one value. */
template <class T>
bool
decodeField(const std::string &text, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = unescapeToken(text);
        return true;
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
        out.clear();
        std::istringstream in(text);
        double v = 0.0;
        for (std::string item; std::getline(in, item, ',');) {
            if (!decodeDouble(item, v))
                return false;
            out.push_back(v);
        }
        return true;
    } else if constexpr (std::is_floating_point_v<T>) {
        return decodeDouble(text, out);
    } else {
        // Unsigned decimal: digits only, no sign, in range of T.
        if (text.empty() ||
            text.find_first_not_of("0123456789") != std::string::npos)
            return false;
        errno = 0;
        const unsigned long long v =
            std::strtoull(text.c_str(), nullptr, 10);
        if (errno != 0 || v > std::numeric_limits<T>::max())
            return false;
        out = static_cast<T>(v);
        return true;
    }
}

/**
 * Calls fn(key, value) for each space-separated key=value token of
 * @p payload until fn returns false; false on a token without a key.
 */
template <class Fn>
bool
forEachToken(const std::string &payload, std::string *err, Fn &&fn)
{
    std::istringstream in(payload);
    for (std::string token; in >> token;) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (err != nullptr)
                *err = "malformed token '" + token + "'";
            return false;
        }
        if (!fn(token.substr(0, eq), token.substr(eq + 1))) {
            if (err != nullptr)
                *err = "bad value in token '" + token + "'";
            return false;
        }
    }
    return true;
}

void
appendField(std::string &out, const char *key, const std::string &value)
{
    if (!out.empty())
        out += ' ';
    out += key;
    out += '=';
    out += value;
}

} // namespace

std::string
escapeToken(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        const auto c = static_cast<unsigned char>(ch);
        if (c <= 0x20 || c == '%' || c == '=' || c == 0x7F) {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02X", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out;
}

std::string
unescapeToken(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '%' && i + 2 < text.size() &&
            std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
            std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
            out += static_cast<char>(
                std::stoi(text.substr(i + 1, 2), nullptr, 16));
            i += 2;
            continue;
        }
        out += text[i];
    }
    return out;
}

std::string
encodeDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

bool
decodeDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size();
}

std::string
encodeCell(const CellRecord &record)
{
    std::string out;
    appendField(out, "cell", wireText(record.cell));
    appendField(out, "attempt", wireText(record.attempt));
    appendField(out, "spec", escapeToken(record.spec));
    campaign::visitResultFields(
        record.result,
        [&out](const campaign::ResultField &f, const auto &value) {
            if (f.wire != nullptr)
                appendField(out, f.wire, wireText(value));
        });
    return out;
}

bool
decodeCell(const std::string &payload, CellRecord &out, std::string *err)
{
    out = CellRecord{};
    bool have_cell = false;
    bool have_spec = false;
    const bool parsed = forEachToken(
        payload, err, [&](const std::string &key, const std::string &value) {
            if (key == "cell")
                return have_cell = decodeField(value, out.cell);
            if (key == "attempt")
                return decodeField(value, out.attempt);
            if (key == "spec")
                return have_spec = decodeField(value, out.spec);
            // A key that names no field is ignored (forward
            // compatibility).
            bool ok = true;
            campaign::visitResultFields(
                out.result,
                [&](const campaign::ResultField &f, auto &&field) {
                    if (f.wire != nullptr && key == f.wire)
                        ok = decodeField(value, field);
                });
            return ok;
        });
    if (parsed && (!have_cell || !have_spec)) {
        if (err != nullptr)
            *err = "record is missing its cell index or spec";
        return false;
    }
    return parsed;
}

std::string
encodeMeta(const MetaRecord &meta)
{
    std::string out;
    appendField(out, "meta", "mcvj1");
    appendField(out, "cells", wireText(meta.cells));
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(meta.fingerprint));
    appendField(out, "matrix", buf);
    return out;
}

bool
decodeMeta(const std::string &payload, MetaRecord &out)
{
    out = MetaRecord{};
    bool is_meta = false;
    const bool parsed = forEachToken(
        payload, nullptr,
        [&](const std::string &key, const std::string &value) {
            if (key == "meta")
                is_meta = value == "mcvj1";
            else if (key == "matrix")
                out.fingerprint = std::strtoull(value.c_str(), nullptr, 16);
            return key != "cells" || decodeField(value, out.cells);
        });
    return parsed && is_meta;
}

std::uint64_t
matrixFingerprint(const std::vector<campaign::CampaignSpec> &specs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &text) {
        for (const char c : text) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
        h ^= 0x0A;
        h *= 0x100000001b3ull;
    };
    for (const campaign::CampaignSpec &spec : specs)
        mix(spec.toString());
    return h;
}

} // namespace mcversi::fleet
