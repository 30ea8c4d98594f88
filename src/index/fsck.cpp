#include "index/fsck.h"

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "fault/cancel.h"
#include "index/index_io.h"
#include "seq/packed_io.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::index {

namespace {

/** Non-escaping `"key":"value"` scan — exact for the journal format,
 *  whose writer quotes only names validated to exclude specials. */
std::string
json_field(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":\"";
    const auto at = line.find(needle);
    if (at == std::string::npos)
        return "";
    const auto begin = at + needle.size();
    const auto end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

void
check_index(const std::string& path, std::vector<FsckFinding>* findings)
{
    try {
        if (read_index_info(path).num_shards > 0) {
            // The constructor validates the header, table geometry and
            // checksums; open_shard checks each table's structure.
            ShardedIndexReader reader(path);
            for (std::size_t s = 0; s < reader.num_shards(); ++s)
                reader.open_shard(s);
        } else {
            load_index(path);
        }
    } catch (const FatalError& e) {
        findings->push_back({path, "bad-index", e.what()});
    }
}

void
check_packed(const std::string& path, std::vector<FsckFinding>* findings)
{
    try {
        seq::load_packed_genome(path);
    } catch (const FatalError& e) {
        findings->push_back({path, "bad-packed", e.what()});
    }
}

bool
is_hex(const std::string& text)
{
    if (text.empty())
        return false;
    for (const char c : text) {
        if (std::isxdigit(static_cast<unsigned char>(c)) == 0)
            return false;
    }
    return true;
}

void
check_journal(const std::string& path,
              std::vector<FsckFinding>* findings)
{
    std::ifstream in(path);
    if (!in) {
        findings->push_back({path, "bad-journal", "cannot open"});
        return;
    }
    std::string line;
    std::getline(in, line);  // header, already sniffed by the caller
    const std::string config = json_field(line, "config");
    if (!is_hex(config) || config.size() != 16) {
        findings->push_back(
            {path, "bad-journal",
             strprintf("header carries a malformed config fingerprint "
                       "'%s'",
                       config.c_str())});
    }
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (trim(line).empty())
            continue;
        if (json_field(line, "pair").empty()) {
            findings->push_back(
                {path, "bad-journal",
                 strprintf("line %zu: entry without a pair id",
                           line_no)});
            continue;
        }
        const std::string status = json_field(line, "status");
        if (status != "clean" && status != "degraded" &&
            status != "quarantined") {
            findings->push_back(
                {path, "bad-journal",
                 strprintf("line %zu: unknown status '%s'", line_no,
                           status.c_str())});
            continue;
        }
        // A journaled output must exist: the journal line is written
        // only after the output's rename, so a missing file means the
        // artifact set is torn.
        const std::string output = json_field(line, "output");
        if (!output.empty()) {
            const auto dir =
                std::filesystem::path(path).parent_path();
            std::error_code ec;
            if (!std::filesystem::exists(dir / output, ec)) {
                findings->push_back(
                    {path, "bad-journal",
                     strprintf("line %zu: journaled output '%s' is "
                               "missing",
                               line_no, output.c_str())});
            }
        }
    }
}

bool
is_journal_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line))
        return false;
    return json_field(line, "journal") == "darwin-wga-batch";
}

}  // namespace

std::vector<FsckFinding>
fsck_file(const std::string& path, std::string* kind)
{
    fault::poll("index.fsck");
    std::vector<FsckFinding> findings;
    std::string detected = "unknown";

    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        findings.push_back({path, "missing", "no such file"});
        if (kind != nullptr)
            *kind = detected;
        return findings;
    }

    if (is_index_file(path)) {
        detected = "index";
        check_index(path, &findings);
    } else if (seq::is_packed_file(path)) {
        detected = "packed-genome";
        check_packed(path, &findings);
    } else if (is_journal_file(path)) {
        detected = "journal";
        check_journal(path, &findings);
    } else {
        findings.push_back(
            {path, "unknown-type",
             "not a .dwi index, .2bit sidecar, or batch journal"});
    }

    if (kind != nullptr)
        *kind = detected;
    return findings;
}

}  // namespace darwin::index
