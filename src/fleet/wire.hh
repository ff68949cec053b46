/**
 * @file
 * Wire codec for fleet cell results.
 *
 * One CellRecord describes one completed campaign cell: the matrix
 * index, the attempt number, the canonical spec string, and the full
 * CampaignResult. The encoding is a single line of space-separated
 * key=value tokens in the repo's spec idiom:
 *
 *  - strings are percent-escaped ('%', space, '=', and control bytes
 *    become %XX), so a payload never contains a raw newline and the
 *    journal's one-record-per-line framing holds;
 *  - doubles are printed as C99 hexfloats ("%a") and parsed with
 *    strtod, so every value -- including NaN and inf -- round-trips
 *    BIT-EXACTLY. This is what makes a resumed / multi-process merge
 *    byte-identical to a single-process run: the summary exporter
 *    formats the identical double, so it prints the identical text;
 *  - vectors (NDT history, fitness trajectory) are comma-joined.
 *
 * The result's keys come from campaign/schema.hh. Unknown keys are
 * ignored on decode (forward compatibility); missing keys keep their
 * default. decode fails on structural damage or a malformed value.
 */

#ifndef MCVERSI_FLEET_WIRE_HH
#define MCVERSI_FLEET_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/result.hh"

namespace mcversi::fleet {

/** One journaled / pipe-transmitted campaign cell outcome. */
struct CellRecord
{
    /** Index into the expanded spec vector (merge key). */
    std::size_t cell = 0;
    /** 1-based attempt that produced this result. */
    std::uint32_t attempt = 1;
    /** specs[cell].toString() -- consistency check on replay. */
    std::string spec;
    /** Full result; .spec is left default (merge re-attaches it). */
    campaign::CampaignResult result;
};

/** Encode to a single newline-free line. */
std::string encodeCell(const CellRecord &record);

/** Decode; returns false (and explains in @p err, if given) on
 * structural damage or a malformed value. */
bool decodeCell(const std::string &payload, CellRecord &out,
                std::string *err = nullptr);

/**
 * The journal's first record: matrix shape proof. A resume refuses to
 * merge a journal whose cell count or spec fingerprint does not match
 * the matrix it is asked to resume.
 */
struct MetaRecord
{
    std::size_t cells = 0;
    std::uint64_t fingerprint = 0;
};

std::string encodeMeta(const MetaRecord &meta);
bool decodeMeta(const std::string &payload, MetaRecord &out);

/** FNV-1a over every spec's canonical string (order-sensitive). */
std::uint64_t
matrixFingerprint(const std::vector<campaign::CampaignSpec> &specs);

// -- Token helpers shared with tests -----------------------------------

/** Percent-escape: output contains no spaces, '=', '%', or bytes
 * < 0x21. */
std::string escapeToken(const std::string &text);
std::string unescapeToken(const std::string &text);

/** Bit-exact double <-> "%a" hexfloat text (nan/inf too); decode
 * returns false unless all of @p text is one number. */
std::string encodeDouble(double v);
bool decodeDouble(const std::string &text, double &out);

} // namespace mcversi::fleet

#endif // MCVERSI_FLEET_WIRE_HH
