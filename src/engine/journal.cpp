#include "engine/journal.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "api/api.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/inject.hpp"

namespace hlts::engine {

namespace {

using util::JsonValue;

// Version 3: the version-2 shape (the job payload is an api::FlowRequestV1
// document under "request" -- the journal shares the wire schema) plus a
// "crc32c" integrity member covering the rest of the document.  Version 2
// is still read back; version 1 spelled the fields out inline and is not.
constexpr int kVersion = 3;
constexpr int kLegacyVersion = 2;

std::string record_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job-" + std::to_string(id) + ".json";
}
std::string ckpt_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job-" + std::to_string(id) + ".ckpt.json";
}
std::string done_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job-" + std::to_string(id) + ".done.json";
}

/// Serializes `members` with a trailing "crc32c" member sealing everything
/// before it.  The CRC is over the canonical json_dump of the object
/// *without* the member, which is exactly what verify_seal() recomputes.
std::string seal(JsonValue::Object members) {
  const std::string body =
      util::json_dump(JsonValue::make_object(JsonValue::Object(members)));
  members.emplace_back(
      "crc32c", JsonValue::make_string(util::crc32c_hex(util::crc32c(body))));
  return util::json_dump(JsonValue::make_object(std::move(members))) + "\n";
}

/// Checks a parsed v3 document's seal: rebuilds the object without the
/// "crc32c" member, re-serializes canonically and compares CRCs.  Returns
/// false (with a human-readable reason) on a missing/malformed/mismatched
/// seal.  Canonical re-serialization is sound because every v3 file is
/// produced by json_dump: parse-then-dump is byte-identical for them, so
/// any byte damage that changes a value changes the CRC.
bool verify_seal(const JsonValue& doc, std::string* why) {
  if (!doc.is_object()) {
    *why = "not a JSON object";
    return false;
  }
  const JsonValue* crc = doc.find("crc32c");
  if (crc == nullptr || !crc->is_string()) {
    *why = "missing crc32c";
    return false;
  }
  JsonValue::Object without;
  without.reserve(doc.as_object().size());
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "crc32c") without.emplace_back(key, value);
  }
  const std::string body =
      util::json_dump(JsonValue::make_object(std::move(without)));
  const std::string expect = util::crc32c_hex(util::crc32c(body));
  if (crc->as_string() != expect) {
    *why = "checksum mismatch (stored " + crc->as_string() + ", computed " +
           expect + ")";
    return false;
  }
  return true;
}

/// Version gate shared by records and checkpoints: v3 must carry a valid
/// seal, v2 is accepted unsealed (legacy), anything else is refused.
bool version_ok(const JsonValue& doc, std::string* why) {
  const std::int64_t version = doc.get_int("version", -1);
  if (version == kLegacyVersion) return true;
  if (version != kVersion) {
    *why = "unsupported version";
    return false;
  }
  return verify_seal(doc, why);
}

JsonValue record_to_json(const JournalRecord& r) {
  return JsonValue::make_object({
      {"version", JsonValue::make_int(kVersion)},
      {"id", JsonValue::make_int(static_cast<std::int64_t>(r.id))},
      {"request", r.to_request().to_json()},
  });
}

JournalRecord record_from_json(const JsonValue& v) {
  if (!v.is_object()) {
    throw Error("journal record: not a JSON object", ErrorKind::Input);
  }
  std::string why;
  if (!version_ok(v, &why)) {
    throw Error("journal record: " + why, ErrorKind::Input);
  }
  const std::int64_t id = v.get_int("id", -1);
  if (id < 1) throw Error("journal record: bad id", ErrorKind::Input);
  const JsonValue* request = v.find("request");
  if (request == nullptr) {
    throw Error("journal record: missing request", ErrorKind::Input);
  }
  return JournalRecord::from_request(static_cast<std::uint64_t>(id),
                                     api::FlowRequestV1::from_json(*request));
}

/// Parses "job-<id><suffix>" and returns the id; nullopt when `name` does
/// not have exactly that shape.
std::optional<std::uint64_t> parse_id(const std::string& name,
                                      const std::string& suffix) {
  const std::string prefix = "job-";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(id);
}

}  // namespace

api::FlowRequestV1 JournalRecord::to_request() const {
  api::FlowRequestV1 req;
  req.name = name;
  req.kind = kind;
  req.dfg = dfg;
  req.source = source;
  req.params = params;
  req.timeout_ms = timeout_ms;
  return req;
}

JournalRecord JournalRecord::from_request(std::uint64_t id,
                                          api::FlowRequestV1 req) {
  JournalRecord r;
  r.id = id;
  r.name = std::move(req.name);
  r.kind = req.kind;
  r.dfg = std::move(req.dfg);
  r.source = std::move(req.source);
  r.params = req.params;
  if (req.timeout_ms < 0) {
    throw Error("journal record: negative timeout", ErrorKind::Input);
  }
  r.timeout_ms = req.timeout_ms;
  return r;
}

Journal::Journal(std::string dir) : dir_(std::move(dir)) {
  util::fs::create_directories(dir_);
}

void Journal::write_job(const JournalRecord& rec) const {
  const JsonValue doc = record_to_json(rec);
  util::fs::write_file_atomic(record_path(dir_, rec.id),
                              seal(JsonValue::Object(doc.as_object())));
}

void Journal::write_checkpoint(std::uint64_t id,
                               const core::Checkpoint& c) const {
  // The crash-soak hook: kill mode here models a process death at a
  // checkpoint boundary; error mode models a failing disk (the engine
  // absorbs it as journal lag).
  HLTS_FAILPOINT("journal.checkpoint");
  util::fs::write_file_atomic(
      ckpt_path(dir_, id),
      seal({
          {"version", JsonValue::make_int(kVersion)},
          {"id", JsonValue::make_int(static_cast<std::int64_t>(id))},
          {"checkpoint", core::checkpoint_to_json(c)},
      }));
}

void Journal::write_done(std::uint64_t id, const std::string& state) const {
  HLTS_FAILPOINT("journal.done");
  // Marker first: once it is durable the job can never be resurrected, and
  // an interrupted cleanup below is finished by the next scan.
  util::fs::write_file_atomic(
      done_path(dir_, id),
      seal({
          {"version", JsonValue::make_int(kVersion)},
          {"id", JsonValue::make_int(static_cast<std::int64_t>(id))},
          {"state", JsonValue::make_string(state)},
      }));
  util::fs::remove_file(ckpt_path(dir_, id));
  util::fs::remove_file(record_path(dir_, id));
  util::fs::remove_file(done_path(dir_, id));
}

Journal::ScanResult Journal::scan(const std::string& dir) {
  ScanResult out;
  std::map<std::uint64_t, std::string> records;  // id -> filename
  std::set<std::uint64_t> ckpts;
  std::set<std::uint64_t> dones;
  for (const std::string& name : util::fs::list_files(dir)) {
    if (auto id = parse_id(name, ".ckpt.json")) {
      ckpts.insert(*id);
    } else if (auto id2 = parse_id(name, ".done.json")) {
      dones.insert(*id2);
    } else if (auto id3 = parse_id(name, ".json")) {
      records.emplace(*id3, name);
    } else {
      out.errors.push_back(name + ": unrecognized journal file (ignored)");
    }
  }

  // Finished jobs: complete the interrupted cleanup (marker is removed
  // last, so a re-crash here just repeats this block).
  for (const std::uint64_t id : dones) {
    util::fs::remove_file(ckpt_path(dir, id));
    util::fs::remove_file(record_path(dir, id));
    util::fs::remove_file(done_path(dir, id));
    records.erase(id);
    ckpts.erase(id);
  }
  // Orphan checkpoints (record cleanup that died between the two removes,
  // or a hand-deleted record): no job to attach them to.
  for (const std::uint64_t id : ckpts) {
    if (records.count(id) == 0) {
      util::fs::remove_file(ckpt_path(dir, id));
    }
  }

  for (const auto& [id, filename] : records) {
    const std::optional<std::string> text =
        util::fs::read_file(record_path(dir, id));
    if (!text) {
      out.errors.push_back(filename + ": unreadable (left in place)");
      continue;
    }
    std::string parse_error;
    const std::optional<JsonValue> doc = util::json_parse(*text, &parse_error);
    Recovered rec;
    if (!doc) {
      out.errors.push_back(filename + ": " + parse_error + " (left in place)");
      continue;
    }
    try {
      rec.record = record_from_json(*doc);
    } catch (const Error& e) {
      out.errors.push_back(filename + ": " + e.what() + " (left in place)");
      continue;
    }
    if (rec.record.id != id) {
      out.errors.push_back(filename + ": id mismatch (left in place)");
      continue;
    }

    if (ckpts.count(id) != 0) {
      const std::optional<std::string> ctext =
          util::fs::read_file(ckpt_path(dir, id));
      std::string cerr;
      std::optional<JsonValue> cdoc =
          ctext ? util::json_parse(*ctext, &cerr) : std::nullopt;
      std::string why;
      const JsonValue* payload =
          cdoc && cdoc->is_object() && version_ok(*cdoc, &why) &&
                  cdoc->get_int("id", -1) == static_cast<std::int64_t>(id)
              ? cdoc->find("checkpoint")
              : nullptr;
      if (payload != nullptr) {
        rec.checkpoint = *payload;
      } else {
        // A corrupt checkpoint only costs restart latency, never
        // correctness: drop it and restart the job from scratch.
        out.errors.push_back("job-" + std::to_string(id) +
                             ".ckpt.json: corrupt checkpoint (removed; job "
                             "restarts from scratch)");
        util::fs::remove_file(ckpt_path(dir, id));
      }
    }
    out.jobs.push_back(std::move(rec));
  }
  // std::map iteration already yields ascending ids.
  return out;
}

namespace {

/// Classifies the *content* of one committed journal document (record,
/// checkpoint or done marker) for the scrubber.  Fills status/detail/
/// corrupt; `id` is the id parsed from the filename.
void scrub_content(const std::string& path, std::uint64_t id,
                   bool is_record, Journal::ScrubFinding* f) {
  const std::optional<std::string> text = util::fs::read_file(path);
  if (!text) {
    f->status = "unreadable";
    f->detail = "cannot read file";
    f->corrupt = true;
    return;
  }
  if (text->empty()) {
    f->status = "zero_length";
    f->detail = "file is empty";
    f->corrupt = true;
    return;
  }
  std::string parse_error;
  const std::optional<JsonValue> doc = util::json_parse(*text, &parse_error);
  if (!doc) {
    // Distinguish a duplicated/garbled tail (the first line still parses)
    // from a torn prefix (it does not): journal files are one JSON
    // document plus '\n', so anything after the first line is foreign.
    const std::size_t nl = text->find('\n');
    if (nl != std::string::npos && nl + 1 < text->size()) {
      if (util::json_parse(text->substr(0, nl))) {
        f->status = "trailing_garbage";
        f->detail = "valid document followed by " +
                    std::to_string(text->size() - nl - 1) +
                    " extra bytes (duplicated record?)";
        f->corrupt = true;
        return;
      }
    }
    f->status = "torn";
    f->detail = parse_error;
    f->corrupt = true;
    return;
  }
  if (!doc->is_object()) {
    f->status = "torn";
    f->detail = "not a JSON object";
    f->corrupt = true;
    return;
  }
  const std::int64_t version = doc->get_int("version", -1);
  if (version == kLegacyVersion) {
    f->status = "legacy_v2";
    f->detail = "pre-checksum document (no integrity proof)";
  } else if (version != kVersion) {
    f->status = "unsupported_version";
    f->detail = "version " + std::to_string(version);
    f->corrupt = true;
    return;
  } else {
    std::string why;
    if (!verify_seal(*doc, &why)) {
      f->status = "checksum_mismatch";
      f->detail = why;
      f->corrupt = true;
      return;
    }
    f->status = "ok";
  }
  if (doc->get_int("id", -1) != static_cast<std::int64_t>(id)) {
    f->status = "id_mismatch";
    f->detail = "document id " + std::to_string(doc->get_int("id", -1)) +
                " != filename id " + std::to_string(id);
    f->corrupt = true;
    return;
  }
  if (is_record) {
    try {
      (void)record_from_json(*doc);
    } catch (const Error& e) {
      f->status = "invalid_record";
      f->detail = e.what();
      f->corrupt = true;
    }
  }
}

}  // namespace

util::JsonValue Journal::ScrubReport::to_json() const {
  JsonValue::Array entries;
  entries.reserve(findings.size());
  for (const ScrubFinding& f : findings) {
    entries.push_back(JsonValue::make_object({
        {"file", JsonValue::make_string(f.file)},
        {"kind", JsonValue::make_string(f.kind)},
        {"status", JsonValue::make_string(f.status)},
        {"detail", JsonValue::make_string(f.detail)},
        {"corrupt", JsonValue::make_bool(f.corrupt)},
        {"quarantined", JsonValue::make_bool(f.quarantined)},
    }));
  }
  return JsonValue::make_object({
      {"dir", JsonValue::make_string(dir)},
      {"files", JsonValue::make_int(files)},
      {"ok", JsonValue::make_int(ok)},
      {"legacy_v2", JsonValue::make_int(legacy)},
      {"corrupt", JsonValue::make_int(corrupt)},
      {"orphan_checkpoints", JsonValue::make_int(orphans)},
      {"temp_leftovers", JsonValue::make_int(temp_leftovers)},
      {"unknown", JsonValue::make_int(unknown)},
      {"clean", JsonValue::make_bool(clean())},
      {"findings", JsonValue::make_array(std::move(entries))},
  });
}

Journal::ScrubReport Journal::scrub(const std::string& dir, bool quarantine) {
  ScrubReport report;
  report.dir = dir;

  // First pass: what exists?  (Needed to tell an orphan checkpoint from a
  // live one without replaying anything.)
  std::set<std::uint64_t> record_ids;
  std::set<std::uint64_t> done_ids;
  const std::vector<std::string> names = util::fs::list_all_files(dir);
  for (const std::string& name : names) {
    if (name.ends_with(util::fs::kTempSuffix)) continue;
    if (parse_id(name, ".ckpt.json") || parse_id(name, ".done.json")) continue;
    if (const auto id = parse_id(name, ".json")) record_ids.insert(*id);
  }
  for (const std::string& name : names) {
    if (const auto id = parse_id(name, ".done.json")) done_ids.insert(*id);
  }

  for (const std::string& name : names) {
    ScrubFinding f;
    f.file = name;
    if (name.ends_with(util::fs::kTempSuffix)) {
      f.kind = "temp";
      f.status = "temp_leftover";
      f.detail = "interrupted atomic commit (recovery ignores it)";
      ++report.temp_leftovers;
    } else if (const auto cid = parse_id(name, ".ckpt.json")) {
      f.kind = "checkpoint";
      scrub_content(dir + "/" + name, *cid, /*is_record=*/false, &f);
      // A checkpoint whose record is gone (and whose job is not mid-
      // retirement) has nothing to resume: recovery sweeps it, scrub
      // reports it.
      if (!f.corrupt && record_ids.count(*cid) == 0 &&
          done_ids.count(*cid) == 0) {
        f.status = "orphan_checkpoint";
        f.detail = "no job-" + std::to_string(*cid) + ".json record";
        ++report.orphans;
      }
    } else if (const auto did = parse_id(name, ".done.json")) {
      f.kind = "done";
      scrub_content(dir + "/" + name, *did, /*is_record=*/false, &f);
    } else if (const auto rid = parse_id(name, ".json")) {
      f.kind = "record";
      scrub_content(dir + "/" + name, *rid, /*is_record=*/true, &f);
    } else {
      f.kind = "unknown";
      f.status = "unknown_file";
      f.detail = "not a journal filename";
      ++report.unknown;
    }
    ++report.files;
    if (f.corrupt) ++report.corrupt;
    if (f.status == "ok") ++report.ok;
    if (f.status == "legacy_v2") ++report.legacy;
    if (quarantine && (f.corrupt || f.kind == "temp" ||
                       f.status == "unknown_file")) {
      util::fs::create_directories(dir + "/quarantine");
      util::fs::rename_file(dir + "/" + name, dir + "/quarantine/" + name);
      f.quarantined = true;
    }
    report.findings.push_back(std::move(f));
  }
  return report;
}

}  // namespace hlts::engine
