#include "ctrl/signals.hpp"

#include <sstream>

#include "coding/strparse.hpp"

namespace ncfn::ctrl {

std::string to_string(VnfRole role) {
  switch (role) {
    case VnfRole::kForward:
      return "forward";
    case VnfRole::kRecode:
      return "recode";
    case VnfRole::kDecode:
      return "decode";
  }
  return "forward";
}

std::optional<VnfRole> role_from_string(std::string_view s) {
  if (s == "forward") return VnfRole::kForward;
  if (s == "recode") return VnfRole::kRecode;
  if (s == "decode") return VnfRole::kDecode;
  return std::nullopt;
}

namespace {

struct SerializeVisitor {
  std::ostringstream& out;

  void operator()(const NcStart& s) const {
    out << "NC_START\nsession " << s.session << '\n';
  }
  void operator()(const NcVnfStart& s) const {
    out << "NC_VNF_START\ndatacenter " << s.datacenter << "\ncount "
        << s.count << '\n';
  }
  void operator()(const NcVnfEnd& s) const {
    out << "NC_VNF_END\nvnf " << s.vnf_id << "\ntau " << s.tau_s << '\n';
  }
  void operator()(const NcForwardTab& s) const {
    out << "NC_FORWARD_TAB\n";
    // The table's own text format, minus comment lines, prefixed per line.
    std::istringstream in(s.table.serialize());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      out << "tab " << line << '\n';
    }
  }
  void operator()(const NcSettings& s) const {
    out << "NC_SETTINGS\ngeneration_blocks " << s.generation_blocks
        << "\nblock_size " << s.block_size << '\n';
    for (const SessionSetting& ss : s.sessions) {
      out << "session " << ss.session << ' ' << to_string(ss.role) << ' '
          << ss.udp_port << '\n';
    }
  }
};

}  // namespace

std::string serialize(const Signal& s) {
  std::ostringstream out;
  std::visit(SerializeVisitor{out}, s);
  out << "END\n";
  return out.str();
}

const char* signal_name(const Signal& s) {
  return std::visit(
      [](const auto& sig) {
        using T = std::decay_t<decltype(sig)>;
        if constexpr (std::is_same_v<T, NcStart>) return "NC_START";
        if constexpr (std::is_same_v<T, NcVnfStart>) return "NC_VNF_START";
        if constexpr (std::is_same_v<T, NcVnfEnd>) return "NC_VNF_END";
        if constexpr (std::is_same_v<T, NcForwardTab>) return "NC_FORWARD_TAB";
        if constexpr (std::is_same_v<T, NcSettings>) return "NC_SETTINGS";
      },
      s);
}

namespace {

using coding::parse_num;

struct Fields {
  std::vector<std::pair<std::string, std::string>> kv;

  /// The value of a single-occurrence key; nullopt when absent or
  /// duplicated (a repeated scalar field is a malformed frame, not a
  /// silent first-wins).
  [[nodiscard]] std::optional<std::string> unique(
      const std::string& key) const {
    std::optional<std::string> found;
    for (const auto& [k, v] : kv) {
      if (k != key) continue;
      if (found.has_value()) return std::nullopt;
      found = v;
    }
    return found;
  }

  /// Every key is one of `allowed` — unknown fields reject the frame, so
  /// a parsed signal round-trips without dropping input.
  [[nodiscard]] bool keys_subset_of(
      std::initializer_list<const char*> allowed) const {
    for (const auto& [k, v] : kv) {
      bool known = false;
      for (const char* a : allowed) known |= (k == a);
      if (!known) return false;
    }
    return true;
  }
};

/// Parse a single-occurrence numeric field of the frame.
template <typename T>
std::optional<T> num_field(const Fields& fields, const std::string& key) {
  const auto v = fields.unique(key);
  if (!v) return std::nullopt;
  return parse_num<T>(*v);
}

}  // namespace

std::optional<Signal> parse_signal(const std::string& text) {
  std::istringstream in(text);
  std::string kind;
  if (!std::getline(in, kind)) return std::nullopt;

  Fields fields;
  std::string line;
  bool terminated = false;
  while (std::getline(in, line)) {
    if (line == "END") {
      terminated = true;
      break;
    }
    const auto space = line.find(' ');
    if (space == std::string::npos) return std::nullopt;
    fields.kv.emplace_back(line.substr(0, space), line.substr(space + 1));
  }
  // Unterminated frames and trailing bytes after END both reject: the
  // frame must be exactly [kind, fields..., END].
  if (!terminated || in.peek() != std::istringstream::traits_type::eof()) {
    return std::nullopt;
  }

  if (kind == "NC_START") {
    if (!fields.keys_subset_of({"session"})) return std::nullopt;
    const auto v = num_field<coding::SessionId>(fields, "session");
    if (!v) return std::nullopt;
    return NcStart{*v};
  }
  if (kind == "NC_VNF_START") {
    if (!fields.keys_subset_of({"datacenter", "count"})) return std::nullopt;
    const auto dc = num_field<std::uint32_t>(fields, "datacenter");
    const auto count = num_field<std::uint32_t>(fields, "count");
    if (!dc || !count) return std::nullopt;
    return NcVnfStart{*dc, *count};
  }
  if (kind == "NC_VNF_END") {
    if (!fields.keys_subset_of({"vnf", "tau"})) return std::nullopt;
    const auto vnf = num_field<std::uint32_t>(fields, "vnf");
    const auto tau = num_field<double>(fields, "tau");
    if (!vnf || !tau) return std::nullopt;
    return NcVnfEnd{*vnf, *tau};
  }
  if (kind == "NC_FORWARD_TAB") {
    if (!fields.keys_subset_of({"tab"})) return std::nullopt;
    std::string table_text;
    for (const auto& [k, v] : fields.kv) {
      if (k == "tab") table_text += v + '\n';
    }
    auto tab = ForwardingTable::parse(table_text);
    if (!tab) return std::nullopt;
    return NcForwardTab{std::move(*tab)};
  }
  if (kind == "NC_SETTINGS") {
    if (!fields.keys_subset_of({"generation_blocks", "block_size",
                                "session"})) {
      return std::nullopt;
    }
    NcSettings s;
    const auto gb = num_field<std::uint32_t>(fields, "generation_blocks");
    const auto bs = num_field<std::uint32_t>(fields, "block_size");
    if (!gb || !bs) return std::nullopt;
    // The codec runs generations of 1 to kMaxGenerationBlocks blocks.
    if (*gb < 1 || *gb > coding::kMaxGenerationBlocks) return std::nullopt;
    s.generation_blocks = *gb;
    s.block_size = *bs;
    for (const auto& [k, v] : fields.kv) {
      if (k != "session") continue;
      // Exactly "<id> <role> <port>" — no extra tokens.
      std::istringstream fs(v);
      std::string id, role, port, extra;
      if (!(fs >> id >> role >> port) || (fs >> extra)) return std::nullopt;
      const auto sid = parse_num<coding::SessionId>(id);
      const auto r = role_from_string(role);
      const auto p = parse_num<std::uint16_t>(port);
      if (!sid || !r || !p) return std::nullopt;
      s.sessions.push_back(SessionSetting{*sid, *r, *p});
    }
    return s;
  }
  return std::nullopt;
}

}  // namespace ncfn::ctrl
