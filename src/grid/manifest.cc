#include "grid/manifest.h"

#include <algorithm>
#include <sstream>

#include "storage/serializer.h"

namespace tpcp {

std::string StoreManifest::Serialize() const {
  std::ostringstream out;
  out << "tpcp-manifest " << kVersion << "\n";
  out << "kind " << kind << "\n";
  out << "shape";
  for (int m = 0; m < grid.num_modes(); ++m) {
    out << " " << grid.tensor_shape().dim(m);
  }
  out << "\n";
  out << "parts";
  for (int m = 0; m < grid.num_modes(); ++m) out << " " << grid.parts(m);
  out << "\n";
  if (kind == kFactorsKind) out << "rank " << rank << "\n";
  if (format != SlabFormat::kDense) {
    out << "format " << SlabFormatName(format) << "\n";
  }
  if (checkpoint.has_value()) {
    out << "ckpt_schedule " << checkpoint->schedule << "\n";
    out << "ckpt_iteration " << checkpoint->iteration << "\n";
    out << "ckpt_cursor " << checkpoint->cursor << "\n";
    out << "ckpt_fingerprint " << checkpoint->options_fingerprint << "\n";
    out << "ckpt_plan " << checkpoint->plan_fingerprint << "\n";
    out << "ckpt_ownership " << checkpoint->ownership_fingerprint << "\n";
    out << "ckpt_fit";
    out.precision(17);  // bit-exact double round trip
    for (double fit : checkpoint->fit_trace) out << " " << fit;
    out << "\n";
  }
  return out.str();
}

Result<StoreManifest> StoreManifest::Parse(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "tpcp-manifest") {
    return Status::Corruption("not a tpcp manifest");
  }
  if (version < 1 || version > kVersion) {
    // Not Corruption: a well-formed manifest from a newer release must
    // surface as an incompatibility, never trigger legacy-scan "healing"
    // that would clobber it.
    return Status::FailedPrecondition("unsupported manifest version " +
                                      std::to_string(version));
  }

  StoreManifest manifest;
  std::vector<int64_t> dims;
  std::vector<int64_t> parts;
  Phase2Checkpoint ckpt;
  bool has_ckpt = false;
  bool has_ckpt_fit = false;
  std::string key;
  while (in >> key) {
    if (key == "kind") {
      if (!(in >> manifest.kind)) {
        return Status::Corruption("manifest kind missing");
      }
    } else if (key == "shape" || key == "parts") {
      std::string line;
      std::getline(in, line);
      std::istringstream fields(line);
      std::vector<int64_t>& target = (key == "shape") ? dims : parts;
      int64_t value = 0;
      while (fields >> value) target.push_back(value);
      if (!fields.eof()) {
        return Status::Corruption("manifest " + key + " line is malformed");
      }
    } else if (key == "rank") {
      if (!(in >> manifest.rank)) {
        return Status::Corruption("manifest rank is malformed");
      }
    } else if (version >= 4 && key == "format") {
      std::string name;
      if (!(in >> name) ||
          !SlabFormatFromName(name.c_str(), &manifest.format)) {
        return Status::Corruption("manifest format is malformed");
      }
    } else if (version >= 2 && key == "ckpt_schedule") {
      if (!(in >> ckpt.schedule)) {
        return Status::Corruption("manifest ckpt_schedule is malformed");
      }
      has_ckpt = true;
    } else if (version >= 2 && key == "ckpt_iteration") {
      if (!(in >> ckpt.iteration) || ckpt.iteration < 0) {
        return Status::Corruption("manifest ckpt_iteration is malformed");
      }
      has_ckpt = true;
    } else if (version >= 2 && key == "ckpt_cursor") {
      if (!(in >> ckpt.cursor) || ckpt.cursor < 0) {
        return Status::Corruption("manifest ckpt_cursor is malformed");
      }
      has_ckpt = true;
    } else if (version >= 2 && key == "ckpt_fingerprint") {
      if (!(in >> ckpt.options_fingerprint)) {
        return Status::Corruption("manifest ckpt_fingerprint is malformed");
      }
      has_ckpt = true;
    } else if (version >= 3 && key == "ckpt_plan") {
      if (!(in >> ckpt.plan_fingerprint)) {
        return Status::Corruption("manifest ckpt_plan is malformed");
      }
      has_ckpt = true;
    } else if (version >= 5 && key == "ckpt_ownership") {
      if (!(in >> ckpt.ownership_fingerprint)) {
        return Status::Corruption("manifest ckpt_ownership is malformed");
      }
      has_ckpt = true;
    } else if (version >= 2 && key == "ckpt_fit") {
      std::string line;
      std::getline(in, line);
      std::istringstream fields(line);
      double value = 0.0;
      while (fields >> value) ckpt.fit_trace.push_back(value);
      if (!fields.eof()) {
        return Status::Corruption("manifest ckpt_fit line is malformed");
      }
      has_ckpt = true;
      has_ckpt_fit = true;
    } else {
      // Unknown keys are a corruption signal within a known version;
      // future formats bump kVersion instead of sneaking fields in.
      return Status::Corruption("unknown manifest key '" + key + "'");
    }
  }

  if (manifest.kind != kTensorKind && manifest.kind != kFactorsKind) {
    return Status::Corruption("unknown manifest kind '" + manifest.kind +
                              "'");
  }
  if (dims.empty() || parts.empty()) {
    return Status::Corruption("manifest is missing shape or parts");
  }
  if (const auto elements = CheckedElementCount(dims); !elements.ok()) {
    return Status::Corruption("manifest " + elements.status().message());
  }
  auto grid = GridPartition::Create(Shape(dims), parts);
  if (!grid.ok()) {
    return Status::Corruption("manifest geometry invalid: " +
                              grid.status().message());
  }
  manifest.grid = std::move(grid).value();
  if (manifest.kind == kFactorsKind && manifest.rank < 1) {
    return Status::Corruption("factor manifest requires rank >= 1");
  }
  if (has_ckpt) {
    // A checkpoint is all-or-nothing: the resume path needs every field.
    if (manifest.kind != kFactorsKind) {
      return Status::Corruption("checkpoint on a non-factor manifest");
    }
    if (ckpt.schedule.empty() || !has_ckpt_fit) {
      return Status::Corruption("manifest checkpoint is incomplete");
    }
    if (static_cast<size_t>(ckpt.iteration) != ckpt.fit_trace.size()) {
      return Status::Corruption(
          "checkpoint fit trace does not match its iteration count");
    }
    manifest.checkpoint = std::move(ckpt);
  }
  return manifest;
}

std::string ManifestFileName(const std::string& prefix) {
  return prefix + "/MANIFEST";
}

Status WriteManifest(Env* env, const std::string& prefix,
                     const StoreManifest& manifest) {
  return env->WriteFile(ManifestFileName(prefix), manifest.Serialize());
}

Result<StoreManifest> ReadManifest(Env* env, const std::string& prefix) {
  std::string bytes;
  TPCP_RETURN_IF_ERROR(env->ReadFile(ManifestFileName(prefix), &bytes));
  return StoreManifest::Parse(bytes);
}

Result<GridPartition> ScanTensorGeometry(Env* env,
                                         const std::string& prefix) {
  const std::vector<std::string> files = env->ListFiles(prefix + "/");
  // Block files are named block_<k1>_<k2>_..._<kN>; the maximum index per
  // position plus one gives the partition counts.
  std::vector<int64_t> max_index;
  for (const std::string& name : files) {
    const size_t base = name.rfind("block_");
    if (base == std::string::npos) continue;
    // Accept only well-formed block names — block(_<digits>)+ to the end
    // of the string. Stray files like "block_old" or "block_0_0_0.bak"
    // are skipped, not parsed.
    std::vector<int64_t> coords;
    const char* p = name.c_str() + base + 6;
    bool well_formed = true;
    while (true) {
      char* end = nullptr;
      const int64_t coord = std::strtoll(p, &end, 10);
      if (end == p || coord < 0) {
        well_formed = false;  // no digits where a coordinate belongs
        break;
      }
      coords.push_back(coord);
      p = end;
      if (*p == '\0') break;
      if (*p != '_') {
        well_formed = false;
        break;
      }
      ++p;
    }
    if (!well_formed || coords.empty()) continue;
    if (max_index.empty()) max_index.assign(coords.size(), 0);
    if (coords.size() != max_index.size()) {
      return Status::Corruption("inconsistent block names under '" + prefix +
                                "/': mixed coordinate counts");
    }
    for (size_t i = 0; i < coords.size(); ++i) {
      max_index[i] = std::max(max_index[i], coords[i]);
    }
  }
  if (max_index.empty()) {
    return Status::NotFound("no block files under '" + prefix + "/'");
  }
  std::vector<int64_t> parts;
  parts.reserve(max_index.size());
  for (int64_t m : max_index) parts.push_back(m + 1);

  // Derive the tensor shape by probing one block per partition along each
  // mode: blocks (k,0,...,0), (0,k,...,0), ... carry the extents.
  std::vector<int64_t> dims(parts.size(), 0);
  for (size_t mode = 0; mode < parts.size(); ++mode) {
    for (int64_t k = 0; k < parts[mode]; ++k) {
      std::string name = prefix + "/block";
      for (size_t i = 0; i < parts.size(); ++i) {
        name += "_";
        name += std::to_string(i == mode ? k : 0);
      }
      auto block = ReadTensorAny(env, name);
      if (!block.ok()) {
        return Status::Corruption("geometry scan of '" + prefix +
                                  "' failed probing " + name + ": " +
                                  block.status().ToString());
      }
      dims[mode] += block->dim(static_cast<int>(mode));
    }
  }
  return GridPartition::Create(Shape(dims), std::move(parts));
}

}  // namespace tpcp
