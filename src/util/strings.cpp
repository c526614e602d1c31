#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace hydra::str {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

int count_loc(std::string_view source) {
  int loc = 0;
  for (std::size_t i = 0; i < source.size();) {
    const std::size_t end = std::min(source.find('\n', i), source.size());
    while (i < end && std::isspace(static_cast<unsigned char>(source[i]))) ++i;
    if (i < end) ++loc;
    i = end + 1;
  }
  return loc;
}

std::string ipv4_to_string(std::uint32_t addr) {
  std::ostringstream os;
  os << ((addr >> 24) & 0xff) << '.' << ((addr >> 16) & 0xff) << '.'
     << ((addr >> 8) & 0xff) << '.' << (addr & 0xff);
  return os.str();
}

std::uint32_t ipv4_from_string(std::string_view s) {
  const auto parts = split(s, '.');
  if (parts.size() != 4) {
    throw std::invalid_argument("malformed IPv4 address: " + std::string(s));
  }
  std::uint32_t addr = 0;
  for (const auto& p : parts) {
    if (p.empty() || p.size() > 3) {
      throw std::invalid_argument("malformed IPv4 address: " + std::string(s));
    }
    for (char c : p) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        throw std::invalid_argument("malformed IPv4 address: " +
                                    std::string(s));
      }
    }
    const int octet = std::stoi(p);
    if (octet > 255) {
      throw std::invalid_argument("malformed IPv4 address: " + std::string(s));
    }
    addr = (addr << 8) | static_cast<std::uint32_t>(octet);
  }
  return addr;
}

std::string indent(std::string_view body, int spaces) {
  const std::string pad(static_cast<std::size_t>(spaces), ' ');
  std::string out;
  for (const auto& line : split(body, '\n')) {
    if (!line.empty()) out += pad;
    out += line;
    out += '\n';
  }
  if (!out.empty() && !body.empty() && body.back() != '\n') out.pop_back();
  return out;
}

}  // namespace hydra::str
