#include "data/loader.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace ssjoin {

Result<std::vector<std::string>> LoadStrings(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.push_back(line);
  }
  return out;
}

Status SaveStrings(const std::string& path,
                   const std::vector<std::string>& strings) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (const std::string& s : strings) out << s << '\n';
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<SetCollection> LoadSets(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  SetCollectionBuilder builder;
  std::string line;
  std::vector<ElementId> elements;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    elements.clear();
    std::istringstream ls(line);
    std::string token;
    while (ls >> token) {
      ElementId value = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec != std::errc() || ptr != token.data() + token.size()) {
        return Status::InvalidArgument("non-numeric element '" + token +
                                       "' at " + path + ":" +
                                       std::to_string(line_no));
      }
      elements.push_back(value);
    }
    builder.Add(elements);
  }
  return builder.Build();
}

Status SaveSets(const std::string& path, const SetCollection& collection) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (SetId id = 0; id < collection.size(); ++id) {
    bool first = true;
    for (ElementId e : collection.set(id)) {
      if (!first) out << ' ';
      out << e;
      first = false;
    }
    out << '\n';
  }
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace ssjoin
