#include "src/runner/manifest.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <sys/stat.h>

#include "src/common/json_fields.h"
#include "src/runner/job_codec.h"

namespace memtis {

bool LoadManifest(const std::string& path,
                  std::map<std::string, ManifestEntry>* out,
                  ManifestLoadStats* stats, std::string* error) {
  out->clear();
  ManifestLoadStats local;
  std::ifstream in(path);
  if (!in.is_open()) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      // The file exists but cannot be read — that is an error, not a fresh
      // resume: silently re-running every cell would discard the checkpoint.
      if (error != nullptr) {
        *error = "cannot read manifest: " + path + ": " + std::strerror(errno);
      }
      return false;
    }
    // Missing file: the first run of a --resume sweep.
    if (stats != nullptr) {
      *stats = local;
    }
    return true;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    ++local.lines_total;
    JsonValue doc;
    if (!JsonValue::Parse(line, &doc, nullptr) || !doc.is_object()) {
      // Tolerated: a crash mid-append leaves at most one truncated line.
      ++local.lines_skipped;
      continue;
    }
    const std::string fingerprint = doc.GetString("fingerprint");
    if (fingerprint.empty()) {
      ++local.lines_skipped;
      continue;
    }
    ManifestEntry entry;
    if (!DecodeJson(doc, &entry)) {
      ++local.lines_skipped;
      continue;
    }
    (*out)[fingerprint] = std::move(entry);  // last-wins
  }
  local.entries = out->size();
  if (stats != nullptr) {
    *stats = local;
  }
  return true;
}

ManifestWriter::~ManifestWriter() { Close(); }

bool ManifestWriter::Open(const std::string& path, std::string* error) {
  Close();
  // "a+" so the last byte can be read: a writer killed mid-append leaves an
  // unterminated record, and the first new one must not be glued to it.
  file_ = std::fopen(path.c_str(), "a+");
  if (file_ == nullptr) {
    if (error != nullptr) {
      *error = "cannot open manifest for append: " + path + ": " +
               std::strerror(errno);
    }
    return false;
  }
  const bool torn = std::fseek(file_, -1, SEEK_END) == 0 && std::fgetc(file_) != '\n';
  std::fseek(file_, 0, SEEK_END);  // a read may not run straight into a write
  if (torn) {
    std::fputc('\n', file_);
    std::fflush(file_);
  }
  return true;
}

void ManifestWriter::Append(const std::string& fingerprint, const JobSpec& spec,
                            const SupervisedOutcome& outcome) {
  std::string line;
  JsonWriter w(&line, 0);
  w.BeginObject();
  w.Field("v", static_cast<uint64_t>(1));
  w.Field("fingerprint", fingerprint);
  w.Field("cell", CanonicalJobSpec(spec));
  EncodeJsonFields(w, outcome);
  w.EndObject();
  line += '\n';

  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

void ManifestWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace memtis
